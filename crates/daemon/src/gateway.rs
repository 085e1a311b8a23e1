//! The multi-tenant gateway: token-routed access to isolated peer groups.
//!
//! Each tenant is a *separate* `sqpeerd` host — its own transport, its
//! own peers, its own description bases. The gateway holds a map from
//! bearer token to tenant, and the token alone determines which host a
//! request can reach: isolation is structural, not filtered. There is no
//! code path by which a request carrying tenant A's token opens a
//! connection to tenant B's host, so cross-tenant leakage would require
//! the gateway to hold a wrong map, not a peer to misbehave.
//!
//! Admission control is per tenant: a cap on concurrently executing
//! queries and a cap on request bytes in flight. Both are charged before
//! the tenant's host is contacted and released when the answer (or
//! failure) comes back, so an over-quota tenant consumes gateway-side
//! arithmetic only.

use sqpeer_rdfs::Schema;
use sqpeer_routing::PeerId;
use sqpeer_rql::compile;
use sqpeer_wire::{
    encode_frame, read_frame, read_payload, AnswerFrame, Envelope, GatewayRequest, GatewayResponse,
    SchemaRegistry,
};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-tenant admission limits.
#[derive(Debug, Clone, Copy)]
pub struct Quotas {
    /// Maximum queries executing at once.
    pub max_concurrent: u32,
    /// Maximum request bytes in flight (sum of admitted frame sizes).
    pub max_bytes_in_flight: u64,
}

impl Default for Quotas {
    fn default() -> Self {
        Quotas {
            max_concurrent: 8,
            max_bytes_in_flight: 1 << 20,
        }
    }
}

/// Admission state for one tenant. Charge with [`Admission::try_admit`]
/// before doing work, release with [`Admission::release`] afterwards —
/// the quota trip reports which limit fired, verbatim, in
/// [`GatewayResponse::OverQuota`].
#[derive(Debug)]
pub struct Admission {
    quotas: Quotas,
    in_flight: u32,
    bytes_in_flight: u64,
}

impl Admission {
    /// Fresh admission state under `quotas`.
    pub fn new(quotas: Quotas) -> Self {
        Admission {
            quotas,
            in_flight: 0,
            bytes_in_flight: 0,
        }
    }

    /// Tries to admit a request of `bytes`; on refusal names the quota
    /// that tripped and admits nothing.
    pub fn try_admit(&mut self, bytes: u64) -> Result<(), String> {
        if self.in_flight >= self.quotas.max_concurrent {
            return Err(format!(
                "concurrent queries (max {})",
                self.quotas.max_concurrent
            ));
        }
        if self.bytes_in_flight.saturating_add(bytes) > self.quotas.max_bytes_in_flight {
            return Err(format!(
                "bytes in flight (max {})",
                self.quotas.max_bytes_in_flight
            ));
        }
        self.in_flight += 1;
        self.bytes_in_flight += bytes;
        Ok(())
    }

    /// Returns a previously admitted request's charge.
    pub fn release(&mut self, bytes: u64) {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.bytes_in_flight = self.bytes_in_flight.saturating_sub(bytes);
    }

    /// Queries currently admitted.
    pub fn in_flight(&self) -> u32 {
        self.in_flight
    }

    /// Bytes currently admitted.
    pub fn bytes_in_flight(&self) -> u64 {
        self.bytes_in_flight
    }
}

/// One tenant: where its host lives, what schema its queries compile
/// against, which member peer receives them, and its quotas.
pub struct TenantConfig {
    /// Bearer token identifying the tenant.
    pub token: String,
    /// Address of the tenant's `sqpeerd` host peer port.
    pub host: String,
    /// The tenant's community schema (queries compile against it at the
    /// gateway, so malformed queries never reach the host).
    pub schema: Arc<Schema>,
    /// The member peer queries are posed at.
    pub at: PeerId,
    /// Admission limits.
    pub quotas: Quotas,
}

struct Tenant {
    host: String,
    schema: Arc<Schema>,
    schemas: SchemaRegistry,
    at: PeerId,
    admission: Mutex<Admission>,
}

/// Gateway setup: where to listen and who the tenants are.
pub struct GatewayConfig {
    /// Bind address (port 0 lets the OS pick).
    pub listen: String,
    /// The tenant table.
    pub tenants: Vec<TenantConfig>,
}

/// A running gateway.
pub struct GatewayHandle {
    /// The bound listen address.
    pub addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl GatewayHandle {
    /// Signals the accept loop to stop and joins it.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The gateway uses this id as the envelope `from` when forwarding to a
/// host; hosts echo it as the reply destination.
const GATEWAY_PEER: PeerId = PeerId(u32::MAX);

/// Boots the gateway: binds the listener and spawns the accept loop.
/// Connections speak framed [`GatewayRequest`] / [`GatewayResponse`].
pub fn spawn_gateway(config: GatewayConfig) -> io::Result<GatewayHandle> {
    let listener = TcpListener::bind(&config.listen)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let tenants: Arc<HashMap<String, Tenant>> = Arc::new(
        config
            .tenants
            .into_iter()
            .map(|t| {
                let mut schemas = SchemaRegistry::new();
                schemas.register(Arc::clone(&t.schema));
                (
                    t.token,
                    Tenant {
                        host: t.host,
                        schema: t.schema,
                        schemas,
                        at: t.at,
                        admission: Mutex::new(Admission::new(t.quotas)),
                    },
                )
            })
            .collect(),
    );

    let shutdown = Arc::new(AtomicBool::new(false));
    let next_qid = Arc::new(AtomicU64::new(0));
    let mut threads = Vec::new();
    {
        let shutdown = Arc::clone(&shutdown);
        threads.push(std::thread::spawn(move || {
            while !shutdown.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let tenants = Arc::clone(&tenants);
                        let shutdown = Arc::clone(&shutdown);
                        let next_qid = Arc::clone(&next_qid);
                        std::thread::spawn(move || {
                            serve_client(stream, tenants, next_qid, shutdown)
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        }));
    }

    Ok(GatewayHandle {
        addr,
        shutdown,
        threads,
    })
}

/// One client connection: framed requests in, framed verdicts out.
fn serve_client(
    mut stream: TcpStream,
    tenants: Arc<HashMap<String, Tenant>>,
    next_qid: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    // Requests carry no schema-bound types, so an empty registry decodes
    // them.
    let no_schemas = SchemaRegistry::new();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let request: GatewayRequest = match read_frame(&mut stream, &no_schemas) {
            Ok(Some(r)) => r,
            Ok(None) => return,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        };
        let response = answer(&request, &tenants, &next_qid);
        if io::Write::write_all(&mut stream, &response).is_err() {
            return;
        }
    }
}

/// Resolves one request to a verdict, as the [`GatewayResponse`] frame
/// to write back. The token lookup is the *only* place a host address
/// enters the picture — an unknown token returns before any connection
/// exists, and a known one can only ever reach its own tenant's host.
fn answer(
    request: &GatewayRequest,
    tenants: &HashMap<String, Tenant>,
    next_qid: &AtomicU64,
) -> Vec<u8> {
    let Some(tenant) = tenants.get(&request.token) else {
        return encode_frame(&GatewayResponse::Unauthorized);
    };
    let query = match compile(&request.query, &tenant.schema) {
        Ok(q) => q,
        Err(e) => return encode_frame(&GatewayResponse::Error(e.to_string())),
    };
    let qid = sqpeer_exec::QueryId(next_qid.fetch_add(1, Ordering::SeqCst));
    let envelope = Envelope {
        from: GATEWAY_PEER,
        to: tenant.at,
        sent_at_us: 0,
        msg: sqpeer_exec::Msg::ClientQuery { qid, query },
    };
    let frame = encode_frame(&envelope);
    let charge = frame.len() as u64;

    if let Err(quota) = tenant
        .admission
        .lock()
        .expect("admission lock poisoned")
        .try_admit(charge)
    {
        return encode_frame(&GatewayResponse::OverQuota { quota });
    }
    let verdict = forward(tenant, &frame);
    tenant
        .admission
        .lock()
        .expect("admission lock poisoned")
        .release(charge);
    verdict.unwrap_or_else(|error| encode_frame(&GatewayResponse::Error(error)))
}

/// Ships an admitted, already-encoded query frame to the tenant's host
/// and renders the `Data` reply — a single packet, or a streamed sequence
/// of packets ending in one flagged `last` — into the `Answer` frame,
/// packet by packet as each arrives. The gateway wall-clocks the stream:
/// `ttfr_us` is when the first packet carrying rows had been rendered,
/// `latency_us` when the final one had. `Err` is the text of a
/// [`GatewayResponse::Error`].
fn forward(tenant: &Tenant, frame: &[u8]) -> Result<Vec<u8>, String> {
    let started = std::time::Instant::now();
    let mut host =
        TcpStream::connect(&tenant.host).map_err(|e| format!("host unreachable: {e}"))?;
    // One small frame out, a burst of frames back: neither end should
    // wait on the other's delayed ACK.
    let _ = host.set_nodelay(true);
    io::Write::write_all(&mut host, frame).map_err(|e| format!("host write failed: {e}"))?;
    let mut answer = AnswerFrame::new();
    let mut partial = false;
    let mut ttfr_us = 0u64;
    loop {
        let payload = read_payload(&mut host)
            .map_err(|e| format!("host reply unreadable: {e}"))?
            .ok_or("host closed without answering")?;
        let packet = answer
            .push_data(&payload, &tenant.schemas)
            .map_err(|e| format!("host reply unreadable: {e}"))?;
        if ttfr_us == 0 && packet.has_rows {
            ttfr_us = started.elapsed().as_micros() as u64;
        }
        partial |= packet.partial;
        if packet.last {
            let latency_us = started.elapsed().as_micros() as u64;
            return Ok(answer.finish(partial, ttfr_us, latency_us));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_enforces_concurrency_quota() {
        let mut a = Admission::new(Quotas {
            max_concurrent: 2,
            max_bytes_in_flight: 1_000,
        });
        assert!(a.try_admit(10).is_ok());
        assert!(a.try_admit(10).is_ok());
        let err = a.try_admit(10).unwrap_err();
        assert!(err.contains("concurrent"), "{err}");
        a.release(10);
        assert!(a.try_admit(10).is_ok());
        assert_eq!(a.in_flight(), 2);
    }

    #[test]
    fn admission_enforces_byte_quota_without_partial_charges() {
        let mut a = Admission::new(Quotas {
            max_concurrent: 10,
            max_bytes_in_flight: 100,
        });
        assert!(a.try_admit(60).is_ok());
        let err = a.try_admit(60).unwrap_err();
        assert!(err.contains("bytes"), "{err}");
        // The refused request must not have charged anything.
        assert_eq!(a.bytes_in_flight(), 60);
        assert_eq!(a.in_flight(), 1);
        assert!(a.try_admit(40).is_ok());
        a.release(60);
        a.release(40);
        assert_eq!(a.bytes_in_flight(), 0);
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn unknown_tokens_never_reach_a_host() {
        // `answer` with an empty tenant table must refuse without any
        // connection attempt — there is no address to connect to.
        let tenants = HashMap::new();
        let verdict = answer(
            &GatewayRequest {
                token: "nobody".into(),
                query: "SELECT X FROM {X}p{Y}".into(),
            },
            &tenants,
            &AtomicU64::new(0),
        );
        assert_eq!(verdict, encode_frame(&GatewayResponse::Unauthorized));
    }
}
