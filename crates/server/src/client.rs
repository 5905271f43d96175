//! A small blocking client for the wire protocol, used by the `connect`
//! subcommand of the example driver and by the loopback tests.

use crate::protocol::{self, Request, RequestEnvelope, Response, MAX_RESPONSE_LINE};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

/// One client connection. Requests are synchronous: send a line, then read
/// response lines until the terminal one (see [`Response::is_terminal`]).
///
/// Tagged requests ([`Client::request_tagged`]) carry a client-chosen id
/// the server echoes on every response line; while such a request is in
/// flight — for example, while this connection is still reading a sweep's
/// record stream — [`Client::cancel`] stops it from a second, short-lived
/// connection.
pub struct Client {
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let addr = stream.peer_addr()?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            addr,
            reader,
            writer: stream,
        })
    }

    /// The server address this client is connected to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends one request line without waiting for the response.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        self.send_raw(&protocol::encode(request))
    }

    /// Sends one request wrapped in a [`RequestEnvelope`] carrying `id`,
    /// without waiting for the response. The server echoes `id` on every
    /// line of this request's stream, and `id` becomes the handle
    /// [`Client::cancel`] takes while the request is in flight.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_tagged(&mut self, id: &str, request: &Request) -> io::Result<()> {
        self.send_raw(&protocol::encode(&RequestEnvelope {
            id: id.to_string(),
            request: request.clone(),
        }))
    }

    /// Sends a raw line (no validation — this is how the tests exercise the
    /// server's error envelope).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn send_raw(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Reads the next response line, in either framing; enveloped lines
    /// yield their id.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the server hung up, `InvalidData` on an
    /// unparseable response or one longer than [`MAX_RESPONSE_LINE`], and
    /// propagated socket errors otherwise.
    pub fn recv_tagged(&mut self) -> io::Result<(Option<String>, Response)> {
        let mut line = String::new();
        loop {
            line.clear();
            let cap = MAX_RESPONSE_LINE as u64;
            if self.reader.by_ref().take(cap).read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            if line.len() == MAX_RESPONSE_LINE && !line.ends_with('\n') {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response line exceeds {MAX_RESPONSE_LINE} bytes"),
                ));
            }
            if !line.trim().is_empty() {
                break;
            }
        }
        protocol::decode_response(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unparseable response: {e}"),
            )
        })
    }

    /// Reads the next response line, discarding any envelope id.
    ///
    /// # Errors
    ///
    /// See [`Client::recv_tagged`].
    pub fn recv(&mut self) -> io::Result<Response> {
        self.recv_tagged().map(|(_, response)| response)
    }

    /// Sends one request and collects its full response stream (zero or
    /// more `Record`s followed by one terminal response).
    ///
    /// # Errors
    ///
    /// Propagates [`Client::send`] / [`Client::recv`] errors.
    pub fn request(&mut self, request: &Request) -> io::Result<Vec<Response>> {
        self.send(request)?;
        self.collect_stream(None)
    }

    /// Sends one id-tagged request and collects its full response stream,
    /// verifying the server echoes the id on every line.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::send_tagged`] / [`Client::recv_tagged`] errors;
    /// `InvalidData` if a response line carries a different id.
    pub fn request_tagged(&mut self, id: &str, request: &Request) -> io::Result<Vec<Response>> {
        self.send_tagged(id, request)?;
        self.collect_stream(Some(id))
    }

    /// Sends a raw line and collects its full response stream.
    ///
    /// # Errors
    ///
    /// Propagates [`Client::send_raw`] / [`Client::recv`] errors.
    pub fn request_raw(&mut self, line: &str) -> io::Result<Vec<Response>> {
        self.send_raw(line)?;
        self.collect_stream(None)
    }

    /// Collects the interleaved streams of several in-flight tagged
    /// requests on this connection (sent earlier with
    /// [`Client::send_tagged`], each with a distinct id), routing every
    /// response line to its stream by the echoed id. Returns once every
    /// listed stream has received its terminal response; within one id the
    /// lines arrive in order, but the server interleaves streams freely
    /// (protocol v3 pipelining).
    ///
    /// # Errors
    ///
    /// Propagates [`Client::recv_tagged`] errors; `InvalidData` if a line
    /// carries an id not in `ids` or a finished stream receives another
    /// line.
    pub fn collect_multiplexed(
        &mut self,
        ids: &[&str],
    ) -> io::Result<BTreeMap<String, Vec<Response>>> {
        let mut streams: BTreeMap<String, Vec<Response>> = ids
            .iter()
            .map(|id| ((*id).to_string(), Vec::new()))
            .collect();
        let mut open: Vec<String> = streams.keys().cloned().collect();
        while !open.is_empty() {
            let (id, response) = self.recv_tagged()?;
            let id = id.unwrap_or_default();
            if !open.contains(&id) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response for unexpected or finished stream {id:?}"),
                ));
            }
            let terminal = response.is_terminal();
            streams
                .get_mut(&id)
                .expect("open ids are stream keys")
                .push(response);
            if terminal {
                open.retain(|open_id| *open_id != id);
            }
        }
        Ok(streams)
    }

    /// Cancels the in-flight request tagged `id` — over a **fresh**
    /// connection, so it works while this one is mid-stream — and returns
    /// the server's terminal answer ([`Response::Cancelled`] on success,
    /// [`Response::Error`] if no such request is in flight). The cancelled
    /// request's own stream still terminates on this connection, with
    /// `Cancelled` instead of `Done`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the side connection.
    pub fn cancel(&self, id: &str) -> io::Result<Response> {
        let mut side = Client::connect(self.addr)?;
        let responses = side.request(&Request::Cancel { id: id.to_string() })?;
        responses.into_iter().last().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "empty response stream to Cancel",
            )
        })
    }

    fn collect_stream(&mut self, expect_id: Option<&str>) -> io::Result<Vec<Response>> {
        let mut responses = Vec::new();
        loop {
            let (id, response) = self.recv_tagged()?;
            if let Some(expected) = expect_id {
                if id.as_deref() != Some(expected) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("response id {id:?} does not match request id `{expected}`"),
                    ));
                }
            }
            let terminal = response.is_terminal();
            responses.push(response);
            if terminal {
                return Ok(responses);
            }
        }
    }
}
