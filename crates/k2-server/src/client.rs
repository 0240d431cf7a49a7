//! Clients: [`TcpClient`] over a socket, [`LocalClient`] in-process.
//!
//! Both speak the exact same [`protocol`](crate::protocol): the local
//! client round-trips every request and response through the binary
//! codec, so in-process callers exercise the same bytes a remote client
//! would — a deliberate choice that keeps the smoke tests honest about
//! wire behaviour.

use crate::pool::WorkerPool;
use crate::protocol::{Request, Response};
use crate::server::roundtrip;
use crate::service::{handle_on, K2Service};
use crate::ServerError;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;

/// A blocking TCP client holding one connection; issue any number of
/// requests sequentially over it.
#[derive(Debug)]
pub struct TcpClient {
    stream: TcpStream,
}

impl TcpClient {
    /// Connects to a running [`Server`](crate::Server).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }

    /// Sends one request and blocks for its response.
    pub fn request(&mut self, req: &Request) -> Result<Response, ServerError> {
        roundtrip(&mut self.stream, req)
    }
}

/// An in-process client: same service, same worker pool, same codec —
/// no socket. Cloneable; clones share the pool, so total concurrent
/// mining stays bounded by the pool size.
#[derive(Debug, Clone)]
pub struct LocalClient {
    service: Arc<K2Service>,
    pool: Arc<WorkerPool>,
}

impl LocalClient {
    /// Wraps a service with its own `workers`-slot pool.
    pub fn new(service: Arc<K2Service>, workers: usize) -> Self {
        Self {
            service,
            pool: Arc::new(WorkerPool::new(workers)),
        }
    }

    /// Wraps a service sharing an existing pool (e.g. a
    /// [`Server`](crate::Server)'s, so local and TCP requests contend
    /// for the same slots).
    pub fn with_pool(service: Arc<K2Service>, pool: Arc<WorkerPool>) -> Self {
        Self { service, pool }
    }

    /// The wrapped service.
    pub fn service(&self) -> &Arc<K2Service> {
        &self.service
    }

    /// Sends one request and blocks for its response, encoding and
    /// decoding through the wire codec.
    pub fn request(&self, req: &Request) -> Result<Response, ServerError> {
        let decoded = Request::decode(&req.encode())?;
        let reply = handle_on(&self.pool, &self.service, decoded);
        Response::decode(&reply.encode())
    }
}
