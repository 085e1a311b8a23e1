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
//!
//! Threading: one accept thread owns the listener and sits in a blocking
//! `accept` ([`GatewayHandle::shutdown`] sets the flag, then connects to
//! the bound address once to wake it); one thread per client connection
//! owns that client's socket *and* the host connections its requests have
//! opened — at most one per tenant, in a plain map local to the thread,
//! filled only from the `tenants.get(token)` result, so the sentence
//! above about tokens and hosts stays true of kept connections too.
//! Nothing is shared between client connections and no lock is taken on
//! the query path except the tenant's admission counter.
//!
//! A host connection is put back only after a reply that ended in its
//! `last` packet; any error drops it. A *kept* connection may have been
//! closed by the host since its last reply (restart, idle reset): if it
//! fails before one reply byte has arrived, the frame is re-sent once on
//! a fresh connection. That is safe because a query is read-only — the
//! worst a duplicate costs is the host evaluating it twice — and it is
//! bounded because a failure on the fresh connection is final.

use crate::host::{accept_loop, frames, wake_accept};
use sqpeer_rdfs::Schema;
use sqpeer_routing::PeerId;
use sqpeer_wire::{
    encode_frame, read_payload, AnswerFrame, Envelope, GatewayRequest, GatewayResponse,
    SchemaRegistry, WireError,
};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

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
    fingerprint: u64,
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
    /// Signals the accept loop to stop, wakes it and joins it.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        wake_accept(self.addr);
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
    let addr = listener.local_addr()?;

    let tenants: Arc<HashMap<String, Tenant>> = Arc::new(
        config
            .tenants
            .into_iter()
            .map(|t| {
                let mut schemas = SchemaRegistry::new();
                let fingerprint = schemas.register(t.schema);
                (
                    t.token,
                    Tenant {
                        host: t.host,
                        fingerprint,
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
    threads.push(accept_loop(listener, &shutdown, move |stream, shutdown| {
        let (tenants, next_qid) = (Arc::clone(&tenants), Arc::clone(&next_qid));
        std::thread::spawn(move || serve_client(stream, tenants, next_qid, shutdown));
    }));

    Ok(GatewayHandle {
        addr,
        shutdown,
        threads,
    })
}

/// The host connections one client connection has open, by the token of
/// the tenant each belongs to (the key is borrowed from the tenant table,
/// so it can only name a tenant that exists).
type HostConns<'a> = HashMap<&'a str, TcpStream>;

/// One client connection: framed requests in, framed verdicts out. The
/// host connections its requests open live and die with it.
fn serve_client(
    stream: TcpStream,
    tenants: Arc<HashMap<String, Tenant>>,
    next_qid: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
) {
    // Requests carry no schema-bound types, so an empty registry decodes
    // them.
    let no_schemas = SchemaRegistry::new();
    let mut hosts = HostConns::new();
    for request in frames::<GatewayRequest>(&stream, &no_schemas, &shutdown) {
        let response = answer(&request, &tenants, &next_qid, &mut hosts);
        if io::Write::write_all(&mut &stream, &response).is_err() {
            return;
        }
    }
}

/// Resolves one request to a verdict, as the [`GatewayResponse`] frame
/// to write back. The token lookup is the *only* place a host address
/// enters the picture — an unknown token returns before any connection
/// exists, and a known one can only ever reach its own tenant's host,
/// over a fresh connection or the one `hosts` keeps under that token.
fn answer<'a>(
    request: &GatewayRequest,
    tenants: &'a HashMap<String, Tenant>,
    next_qid: &AtomicU64,
    hosts: &mut HostConns<'a>,
) -> Vec<u8> {
    let Some((token, tenant)) = tenants.get_key_value(&request.token) else {
        return encode_frame(&GatewayResponse::Unauthorized);
    };
    let query = match tenant.schemas.compile(tenant.fingerprint, &request.query) {
        Ok(q) => q,
        Err(WireError::Query(e)) => return encode_frame(&GatewayResponse::Error(e)),
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
    let verdict = forward(tenant, &frame, hosts.remove(token.as_str()));
    tenant
        .admission
        .lock()
        .expect("admission lock poisoned")
        .release(charge);
    match verdict {
        Ok((answer, host)) => {
            hosts.insert(token, host);
            answer
        }
        Err(error) => encode_frame(&GatewayResponse::Error(error)),
    }
}

/// Ships an admitted, already-encoded query frame to the tenant's host,
/// on `kept` (the connection this client's last query to the tenant left
/// open) or else on a fresh one, and renders the `Data` reply — a single
/// packet, or a streamed sequence of packets ending in one flagged `last`
/// — into the `Answer` frame, packet by packet as each arrives. The
/// gateway wall-clocks the stream: `ttfr_us` is when the first packet
/// carrying rows had been rendered, `latency_us` when the final one had.
/// Returns the connection with the answer once `last` has been read, so
/// it is on a frame boundary and can carry the next query; `Err` is the
/// text of a [`GatewayResponse::Error`] and drops the connection.
fn forward(
    tenant: &Tenant,
    frame: &[u8],
    kept: Option<TcpStream>,
) -> Result<(Vec<u8>, TcpStream), String> {
    let started = std::time::Instant::now();
    // A kept connection the host has closed since its last reply fails
    // here, before any reply byte: re-send on a fresh one, once.
    let kept = kept.and_then(|mut host| send(&mut host, frame).ok().map(|()| host));
    let mut host = match kept {
        Some(host) => host,
        None => {
            let mut host =
                TcpStream::connect(&tenant.host).map_err(|e| format!("host unreachable: {e}"))?;
            // One small frame out, a burst of frames back: neither end
            // should wait on the other's delayed ACK.
            let _ = host.set_nodelay(true);
            send(&mut host, frame)?;
            host
        }
    };
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
            return Ok((answer.finish(partial, ttfr_us, latency_us), host));
        }
    }
}

/// Writes the query frame and waits, without consuming it, for the first
/// byte of the reply: `Ok` means the host has begun to answer on this
/// connection, so from here on a failure is the query's, not a stale
/// socket's.
fn send(host: &mut TcpStream, frame: &[u8]) -> Result<(), String> {
    io::Write::write_all(host, frame).map_err(|e| format!("host write failed: {e}"))?;
    loop {
        match host.peek(&mut [0]) {
            Ok(0) => return Err("host closed without answering".into()),
            Ok(_) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("host reply unreadable: {e}")),
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
            &mut HostConns::new(),
        );
        assert_eq!(verdict, encode_frame(&GatewayResponse::Unauthorized));
    }

    use crate::{spawn_host, GroupSpec, HostConfig, HostHandle};
    use sqpeer_exec::PeerConfig;
    use sqpeer_testkit::fixtures::{base_with, fig1_query_text, fig1_schema};

    /// A one-peer group whose Figure-1 answer is a single row under
    /// `http://{name}/`.
    fn host(name: &str) -> HostHandle {
        let schema = fig1_schema();
        let uri = |local: &str| format!("http://{name}/{local}");
        let (a, b, c) = (uri("a"), uri("b"), uri("c"));
        spawn_host(HostConfig {
            listen: "127.0.0.1:0".into(),
            status: None,
            spec: GroupSpec {
                bases: vec![base_with(&schema, &[(&a, "prop1", &b), (&b, "prop2", &c)])],
                schema,
                config: PeerConfig::default(),
            },
            telemetry_window_us: None,
            settle_us: 100_000,
            answer_batch_rows: None,
        })
        .expect("host binds a loopback port")
    }

    fn tenant(host: &str, at: u32, quotas: Quotas) -> Tenant {
        let mut schemas = SchemaRegistry::new();
        let fingerprint = schemas.register(fig1_schema());
        Tenant {
            host: host.into(),
            fingerprint,
            schemas,
            at: PeerId(at),
            admission: Mutex::new(Admission::new(quotas)),
        }
    }

    /// A connected socket whose far end is already closed: what a kept
    /// host connection looks like after the host restarted.
    fn stale_connection() -> TcpStream {
        let listener = TcpListener::bind("127.0.0.1:0").expect("listener binds");
        let stream = TcpStream::connect(listener.local_addr().expect("bound")).expect("connects");
        drop(listener.accept().expect("accepts"));
        stream
    }

    /// One client connection, every kind of verdict in turn, twenty
    /// times over: each token sees its own tenant's URIs only, refusals
    /// touch no host, and whatever path a request takes out of `forward`
    /// — answered, answered after the one re-send, failed, failed after
    /// the re-send — its admission charge is back before the next.
    #[test]
    fn a_shared_client_connection_keeps_tenants_apart_and_charges_released() {
        let (acme, globex) = (host("acme"), host("globex"));
        // Any contact with this address fails: the port is closed again.
        let nowhere = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("a free port")
            .to_string();
        let starved = Quotas {
            max_concurrent: 8,
            max_bytes_in_flight: 1,
        };
        let tenants: HashMap<String, Tenant> = [
            (
                "acme-token",
                tenant(&acme.addr.to_string(), 0, Quotas::default()),
            ),
            (
                "globex-token",
                tenant(&globex.addr.to_string(), 0, Quotas::default()),
            ),
            ("starved-token", tenant(&nowhere, 0, starved)),
            // Posed at a peer id the group lacks: the host closes
            // without answering.
            (
                "lost-token",
                tenant(&acme.addr.to_string(), 999, Quotas::default()),
            ),
        ]
        .into_iter()
        .map(|(token, tenant)| (token.to_string(), tenant))
        .collect();
        let next_qid = AtomicU64::new(0);
        let mut hosts = HostConns::new();
        fn ask<'a>(
            token: &str,
            tenants: &'a HashMap<String, Tenant>,
            next_qid: &AtomicU64,
            hosts: &mut HostConns<'a>,
        ) -> GatewayResponse {
            let request = GatewayRequest {
                token: token.into(),
                query: fig1_query_text().into(),
            };
            let verdict = answer(&request, tenants, next_qid, hosts);
            for (token, tenant) in tenants {
                let admission = tenant.admission.lock().expect("admission lock");
                assert_eq!(
                    (admission.in_flight(), admission.bytes_in_flight()),
                    (0, 0),
                    "{token} still charged after a verdict"
                );
            }
            sqpeer_wire::decode_frame(&verdict, &SchemaRegistry::new()).expect("verdict decodes")
        }
        let sees_only = |verdict: GatewayResponse, own: &str, foreign: &str| {
            let GatewayResponse::Answer { rows, partial, .. } = verdict else {
                panic!("{own} should get an answer, got {verdict:?}");
            };
            assert!(!rows.is_empty() && !partial);
            assert!(
                rows.iter()
                    .flatten()
                    .all(|v| v.contains(own) && !v.contains(foreign)),
                "cross-tenant leak into {own}: {rows:?}"
            );
        };

        for round in 0..20 {
            // Every fifth round the kept connections have gone stale.
            if round % 5 == 4 {
                for token in ["acme-token", "globex-token"] {
                    let (token, _) = tenants.get_key_value(token).expect("configured");
                    hosts.insert(token, stale_connection());
                }
            }
            sees_only(
                ask("acme-token", &tenants, &next_qid, &mut hosts),
                "acme",
                "globex",
            );
            sees_only(
                ask("globex-token", &tenants, &next_qid, &mut hosts),
                "globex",
                "acme",
            );
            assert_eq!(
                ask("stolen-token", &tenants, &next_qid, &mut hosts),
                GatewayResponse::Unauthorized
            );
            let GatewayResponse::OverQuota { quota } =
                ask("starved-token", &tenants, &next_qid, &mut hosts)
            else {
                panic!("the starved tenant should be over quota");
            };
            assert!(quota.contains("bytes"), "{quota}");
            // A stale connection in front of a query no host will answer:
            // the re-send fails too, and that is final.
            if round % 2 == 1 {
                let (token, _) = tenants.get_key_value("lost-token").expect("configured");
                hosts.insert(token, stale_connection());
            }
            assert_eq!(
                ask("lost-token", &tenants, &next_qid, &mut hosts),
                GatewayResponse::Error("host closed without answering".into())
            );
            // Only the tenants that were answered keep a connection.
            let mut kept: Vec<&str> = hosts.keys().copied().collect();
            kept.sort_unstable();
            assert_eq!(kept, ["acme-token", "globex-token"], "round {round}");
        }

        acme.shutdown();
        globex.shutdown();
    }
}
