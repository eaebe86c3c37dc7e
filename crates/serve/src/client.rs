//! A blocking client for the dagwave-serve protocol: one `TcpStream`,
//! one request/response pair at a time. Replies are read through a
//! [`FrameDecoder`], the decoder the server's reactor uses, so both ends
//! share one decode path and a reply usually costs one `read`.
//!
//! The client is deliberately thin — it frames requests, reads exactly
//! one response, and maps typed server errors into
//! [`ClientError::Remote`]. Connection pooling, retries, and pipelining
//! are caller concerns. Every typed server error leaves the connection
//! usable except the header-level ones, after which the server closes it.
//! [`ErrorCode::Busy`] still decodes, though this server never sends it.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    write_frame, ErrorCode, FrameDecoder, Request, Response, WireDelta, WireError, WireOp,
    WireSolution, WireStats,
};

/// Client-side failures.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClientError {
    /// The transport failed (connect, write, or the server closed
    /// mid-frame).
    Io(io::Error),
    /// The server's bytes did not decode as a response frame.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Remote {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// The server's human-readable detail.
        message: String,
    },
    /// The server answered with a well-formed response of the wrong kind
    /// for the request (a protocol state bug, not a transport fault).
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Remote { code, message } => {
                write!(f, "server error {code:?}: {message}")
            }
            ClientError::Unexpected(what) => {
                write!(f, "unexpected response kind (wanted {what})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected client. Every method sends one request and blocks for its
/// response.
pub struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl Client {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
            decoder: FrameDecoder::new(),
        })
    }

    fn round_trip(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(&mut self.stream, req.opcode(), &req.encode_payload())?;
        let resp = self.read_response()?;
        if let Response::Error { code, message } = resp {
            return Err(ClientError::Remote { code, message });
        }
        Ok(resp)
    }

    /// Block until one whole response frame has arrived and decode it. A
    /// close with nothing buffered is a clean close between replies; a
    /// close with a partial frame buffered is a close mid-reply. Both are
    /// [`io::ErrorKind::UnexpectedEof`], told apart by their message.
    fn read_response(&mut self) -> Result<Response, ClientError> {
        loop {
            if let Some((op, payload)) = self.decoder.next_frame().map_err(ClientError::Wire)? {
                return Response::decode(op, payload).map_err(ClientError::Wire);
            }
            match self.decoder.fill_from(&mut self.stream) {
                Ok(0) => {
                    let what = if self.decoder.buffered() == 0 {
                        "server closed before responding"
                    } else {
                        "server closed mid-reply"
                    };
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, what).into());
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Admit one dipath (as its arc-id sequence) into `tenant`; returns
    /// the assigned stable path id.
    pub fn admit(&mut self, tenant: u64, arcs: Vec<u32>) -> Result<u32, ClientError> {
        match self.round_trip(&Request::Admit { tenant, arcs })? {
            Response::Admitted { id } => Ok(id),
            _ => Err(ClientError::Unexpected("Admitted")),
        }
    }

    /// Retire the live dipath with stable id `id` from `tenant`.
    pub fn retire(&mut self, tenant: u64, id: u32) -> Result<(), ClientError> {
        match self.round_trip(&Request::Retire { tenant, id })? {
            Response::Retired => Ok(()),
            _ => Err(ClientError::Unexpected("Retired")),
        }
    }

    /// Apply a mutation batch atomically; returns the stable ids of its
    /// additions, in batch order.
    pub fn batch(&mut self, tenant: u64, ops: Vec<WireOp>) -> Result<Vec<u32>, ClientError> {
        match self.round_trip(&Request::Batch { tenant, ops })? {
            Response::Applied { added } => Ok(added),
            _ => Err(ClientError::Unexpected("Applied")),
        }
    }

    /// Fetch `tenant`'s current wavelength solution.
    pub fn query(&mut self, tenant: u64) -> Result<WireSolution, ClientError> {
        match self.round_trip(&Request::Query { tenant })? {
            Response::Solution(s) => Ok(s),
            _ => Err(ClientError::Unexpected("Solution")),
        }
    }

    /// Fetch everything in `tenant`'s solution that changed since the
    /// epoch of the client's last sync (`0` = never synced; the reply's
    /// `epoch` is the value to pass next time). O(changed) bytes on the
    /// wire — replaying deltas in epoch order reconstructs exactly what
    /// [`Client::query`] would return, without ever shipping the full
    /// assignment (unless the reply says `full_resync`).
    pub fn query_delta(&mut self, tenant: u64, since: u64) -> Result<WireDelta, ClientError> {
        match self.round_trip(&Request::QueryDelta { tenant, since })? {
            Response::Delta(d) => Ok(d),
            _ => Err(ClientError::Unexpected("Delta")),
        }
    }

    /// Fetch `tenant`'s cumulative workspace + service counters.
    pub fn stats(&mut self, tenant: u64) -> Result<WireStats, ClientError> {
        match self.round_trip(&Request::Stats { tenant })? {
            Response::Stats(s) => Ok(s),
            _ => Err(ClientError::Unexpected("Stats")),
        }
    }

    /// Ask the server to shut down (stops every tenant actor and closes
    /// the listener). The connection is unusable afterwards.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.round_trip(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::Unexpected("ShuttingDown")),
        }
    }

    /// Send raw frame bytes and read one response — the escape hatch the
    /// protocol tests use to probe malformed-input handling.
    pub fn raw_round_trip(&mut self, bytes: &[u8]) -> Result<Response, ClientError> {
        use std::io::Write;
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        self.read_response()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{Shutdown, TcpListener};

    /// A client whose server side has already sent `reply_bytes` and then
    /// closed its write half. The server socket is returned so it stays
    /// open to absorb the client's requests.
    fn client_after(reply_bytes: &[u8]) -> (Client, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.write_all(reply_bytes).unwrap();
        server.shutdown(Shutdown::Write).unwrap();
        (client, server)
    }

    fn eof_message(r: Result<(), ClientError>) -> String {
        match r {
            Err(ClientError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => e.to_string(),
            other => panic!("expected an UnexpectedEof, got {other:?}"),
        }
    }

    #[test]
    fn client_distinguishes_clean_close_from_mid_reply_close() {
        let reply = Response::Retired.to_frame();

        // One whole reply, then a close between replies.
        let (mut client, _server) = client_after(&reply);
        client.retire(1, 0).unwrap();
        let clean = eof_message(client.retire(1, 1));
        assert_eq!(clean, "server closed before responding");

        // One whole reply and part of the next, then a close mid-reply.
        let mut bytes = reply.clone();
        bytes.extend_from_slice(&reply[..reply.len() - 1]);
        let (mut client, _server) = client_after(&bytes);
        client.retire(1, 0).unwrap();
        let mid = eof_message(client.retire(1, 1));
        assert_eq!(mid, "server closed mid-reply");
    }
}
