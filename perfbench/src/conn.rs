//! The benchmark's client connection: the server's own frame codec over
//! a socket that either blocks for replies or polls for them.
//!
//! A client that blocks in `read` lets its CPU go idle between
//! requests. On a virtual machine the hypervisor then has to schedule
//! that CPU again to deliver each reply, and on a busy host that costs
//! milliseconds at random: a workload whose server threads also sleep
//! between requests would measure the neighbours, not the server. A
//! polling connection keeps its CPU busy and yields it whenever a
//! server thread is ready to run. Workloads that keep the server's
//! threads busy block instead, so the client does not take CPU time
//! the server could use.

use bucketrank_server::proto::{decode_batch_reply, encode_batch, FrameError, FrameReader};
use bucketrank_server::{Request, Response, DEFAULT_MAX_FRAME};
use std::io::{self, ErrorKind, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a reply may take before the connection counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One connection to the server.
pub struct Conn {
    stream: TcpStream,
    reader: FrameReader,
}

impl Conn {
    /// Connects with Nagle off; `poll` selects polling over blocking.
    pub fn connect(addr: SocketAddr, poll: bool) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        if poll {
            stream.set_nonblocking(true)?;
        } else {
            stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
            stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        }
        Ok(Conn {
            stream,
            reader: FrameReader::new(),
        })
    }

    /// Writes one length-prefixed frame.
    pub fn send(&mut self, body: &[u8]) -> io::Result<()> {
        let len =
            u32::try_from(body.len()).map_err(|_| io::Error::from(ErrorKind::InvalidInput))?;
        let mut frame = Vec::with_capacity(4 + body.len());
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(body);
        let mut sent = 0;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        while sent < frame.len() {
            match self.stream.write(&frame[sent..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(k) => sent += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                    std::thread::yield_now()
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads the next frame, polling (or blocking) until it is complete.
    pub fn recv(&mut self) -> Result<Vec<u8>, String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            match self.reader.read_frame(&mut self.stream, DEFAULT_MAX_FRAME) {
                Ok(body) => return Ok(body),
                Err(FrameError::Io(e)) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err("no reply within 60 s".to_owned());
                    }
                    std::thread::yield_now();
                }
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// One v1 request; returns the raw reply body.
    pub fn call(&mut self, req: &Request) -> Result<Vec<u8>, String> {
        self.send(&req.encode()).map_err(|e| e.to_string())?;
        self.recv()
    }

    /// One v1 request, decoded.
    pub fn call_decoded(&mut self, req: &Request) -> Result<Response, String> {
        Response::decode(&self.call(req)?).map_err(|e| e.to_string())
    }

    /// Sends one v2 `Batch` frame without waiting.
    pub fn send_batch(&mut self, ops: &[Request]) -> Result<(), String> {
        self.send(&encode_batch(ops)).map_err(|e| e.to_string())
    }

    /// Receives one `BatchReply` of `count` per-op bodies. A server
    /// refusing the whole frame (one v1 `Busy` or error) yields that
    /// reply for every op.
    pub fn recv_batch(&mut self, count: usize) -> Result<Vec<Vec<u8>>, String> {
        let reply = self.recv()?;
        let bodies = match decode_batch_reply(&reply) {
            Ok(bodies) => bodies,
            Err(e) => match Response::decode(&reply) {
                Ok(Response::Busy | Response::Error { .. }) => vec![reply; count],
                _ => return Err(format!("undecodable batch reply: {e}")),
            },
        };
        if bodies.len() != count {
            return Err(format!(
                "batch of {count} ops answered with {} replies",
                bodies.len()
            ));
        }
        Ok(bodies)
    }
}
