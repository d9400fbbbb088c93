//! A minimal blocking client for the newline-delimited JSON protocol, used
//! by the CLI `client` subcommand, the integration tests, and the loopback
//! benchmark.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// One connection to a running server.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The request line being sent, reused across round trips.
    line: Vec<u8>,
}

impl Client {
    /// Connects to `addr` (`host:port`).
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        #[expect(
            clippy::unused_result_ok,
            reason = "nodelay is a best-effort latency hint; the connection works without it"
        )]
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            line: Vec::new(),
        })
    }

    /// Sends one request line and reads the one-line response (both without
    /// trailing newlines).
    pub fn roundtrip(&mut self, request: &str) -> std::io::Result<String> {
        // One write: with TCP_NODELAY, a separate newline write would go
        // out as a second segment.
        self.line.clear();
        self.line.extend_from_slice(request.as_bytes());
        self.line.push(b'\n');
        self.writer.write_all(&self.line)?;
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }
}
