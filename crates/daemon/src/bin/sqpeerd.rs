//! `sqpeerd` — host a SQPeer peer group, run the multi-tenant gateway,
//! or act as a one-shot client.
//!
//! ```text
//! sqpeerd serve   <config>                 host a tenant peer group
//! sqpeerd gateway <config>                 run the token-routed gateway
//! sqpeerd query   <addr> <token> <rql>     pose a query through a gateway
//! sqpeerd status  <addr>                   dump a host's status page
//! sqpeerd obs     <addr>                   dump only the observability section
//! ```
//!
//! Config files are line-based (`#` starts a comment). A host config:
//!
//! ```text
//! listen 127.0.0.1:7400
//! status 127.0.0.1:7401
//! schema fig1
//! stream_batch_rows 8      # stream subplan results in 8-row packets
//! answer_batch_rows 8      # client answers leave in 8-row frames, back to back
//! obs                      # enable the observability plane (defaults)
//! obs_slow_query_ms 500    # slow-query threshold (implies obs)
//! peer
//! triple http://p1/a prop1 http://p1/b
//! peer
//! triple http://p2/a prop1 http://shared/b
//! ```
//!
//! A gateway config:
//!
//! ```text
//! listen 127.0.0.1:7600
//! schema fig1
//! tenant acme-token 127.0.0.1:7400 0
//! tenant globex-token 127.0.0.1:7500 0 max_concurrent=2 max_bytes=4096
//! ```

use sqpeer_daemon::{
    spawn_gateway, spawn_host, GatewayConfig, GroupSpec, HostConfig, Quotas, TenantConfig,
};
use sqpeer_exec::PeerConfig;
use sqpeer_rdfs::Schema;
use sqpeer_routing::PeerId;
use sqpeer_store::DescriptionBase;
use sqpeer_testkit::fixtures::{base_with, fig1_schema};
use sqpeer_wire::{read_frame, write_frame, GatewayRequest, GatewayResponse, SchemaRegistry};
use std::io::Read;
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("gateway") => cmd_gateway(&args[1..]),
        Some("query") => return cmd_query(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("obs") => cmd_obs(&args[1..]),
        _ => {
            eprintln!("usage: sqpeerd serve|gateway|query|status|obs ...");
            return ExitCode::from(64);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sqpeerd: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The meaningful lines of a config file: trimmed, comments stripped.
fn config_lines(path: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
        .filter(|l| !l.is_empty())
        .collect())
}

/// Resolves a named schema. Only the paper's running example is built
/// in; site schemas would load here.
fn named_schema(name: &str) -> Result<Arc<Schema>, String> {
    match name {
        "fig1" => Ok(fig1_schema()),
        other => Err(format!("unknown schema '{other}' (try: fig1)")),
    }
}

/// The value of setting `key`; `bad <key> '<value>'` when it is not one.
fn setting<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad {key} '{value}'"))
}

/// A millisecond setting in µs, refused the same way when µs cannot hold
/// it.
fn ms_to_us(key: &str, ms: &str) -> Result<u64, String> {
    let us = setting::<u64>(key, ms)?.checked_mul(1_000);
    us.ok_or_else(|| format!("bad {key} '{ms}'"))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("usage: sqpeerd serve <config>".into());
    };
    let mut listen = None;
    let mut status = None;
    let mut schema: Option<Arc<Schema>> = None;
    let mut bases: Vec<Vec<(String, String, String)>> = Vec::new();
    let mut settle_us = 200_000;
    let mut telemetry_window_us = Some(1_000_000);
    let mut answer_batch_rows = None;
    let mut stream_batch_rows = None;
    let mut obs: Option<sqpeer_exec::ObsConfig> = None;
    for line in config_lines(path)? {
        let mut words = line.split_whitespace();
        let key = words.next().unwrap_or("");
        let rest: Vec<&str> = words.collect();
        match (key, rest.as_slice()) {
            ("listen", [addr]) => listen = Some(addr.to_string()),
            ("status", [addr]) => status = Some(addr.to_string()),
            ("schema", [name]) => schema = Some(named_schema(name)?),
            ("peer", []) => bases.push(Vec::new()),
            ("triple", [s, p, o]) => bases
                .last_mut()
                .ok_or("'triple' before any 'peer' line")?
                .push((s.to_string(), p.to_string(), o.to_string())),
            ("settle_ms", [ms]) => settle_us = ms_to_us(key, ms)?,
            ("telemetry_window_ms", [ms]) => telemetry_window_us = Some(ms_to_us(key, ms)?),
            ("answer_batch_rows", [n]) => answer_batch_rows = Some(setting(key, n)?),
            ("stream_batch_rows", [n]) => stream_batch_rows = Some(setting(key, n)?),
            ("obs", []) => obs = Some(obs.unwrap_or_default()),
            ("obs_slow_query_ms", [ms]) => {
                let mut cfg = obs.unwrap_or_default();
                cfg.slow_query_us = ms_to_us(key, ms)?;
                obs = Some(cfg);
            }
            _ => return Err(format!("bad config line: '{line}'")),
        }
    }
    let listen = listen.ok_or("config needs a 'listen' line")?;
    let schema = schema.ok_or("config needs a 'schema' line")?;
    if bases.is_empty() {
        return Err("config needs at least one 'peer' section".into());
    }
    let bases: Vec<DescriptionBase> = bases
        .iter()
        .map(|triples| {
            let borrowed: Vec<(&str, &str, &str)> = triples
                .iter()
                .map(|(s, p, o)| (s.as_str(), p.as_str(), o.as_str()))
                .collect();
            base_with(&schema, &borrowed)
        })
        .collect();

    let handle = spawn_host(HostConfig {
        listen,
        status,
        spec: GroupSpec {
            schema,
            bases,
            config: PeerConfig {
                stream_batch_rows,
                obs,
                ..PeerConfig::default()
            },
        },
        telemetry_window_us,
        settle_us,
        answer_batch_rows,
    })
    .map_err(|e| format!("cannot start host: {e}"))?;

    println!("listening {}", handle.addr);
    if let Some(s) = handle.status_addr {
        println!("status {s}");
    }
    // Run until killed; the threads do the work.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_gateway(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("usage: sqpeerd gateway <config>".into());
    };
    let mut listen = None;
    let mut schema: Option<Arc<Schema>> = None;
    let mut tenants = Vec::new();
    for line in config_lines(path)? {
        let mut words = line.split_whitespace();
        let key = words.next().unwrap_or("");
        let rest: Vec<&str> = words.collect();
        match (key, rest.as_slice()) {
            ("listen", [addr]) => listen = Some(addr.to_string()),
            ("schema", [name]) => schema = Some(named_schema(name)?),
            ("tenant", [token, host, at, opts @ ..]) => {
                let mut quotas = Quotas::default();
                for opt in opts {
                    match opt.split_once('=') {
                        Some(("max_concurrent", v)) => {
                            quotas.max_concurrent = v.parse().map_err(|_| format!("bad {opt}"))?
                        }
                        Some(("max_bytes", v)) => {
                            quotas.max_bytes_in_flight =
                                v.parse().map_err(|_| format!("bad {opt}"))?
                        }
                        _ => return Err(format!("bad tenant option '{opt}'")),
                    }
                }
                tenants.push(TenantConfig {
                    token: token.to_string(),
                    host: host.to_string(),
                    schema: schema.clone().ok_or("'tenant' before any 'schema' line")?,
                    at: PeerId(setting("peer id", at)?),
                    quotas,
                });
            }
            _ => return Err(format!("bad config line: '{line}'")),
        }
    }
    let listen = listen.ok_or("config needs a 'listen' line")?;
    let handle = spawn_gateway(GatewayConfig { listen, tenants })
        .map_err(|e| format!("cannot start gateway: {e}"))?;
    println!("listening {}", handle.addr);
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn cmd_query(args: &[String]) -> ExitCode {
    let [addr, token, rql] = args else {
        eprintln!("usage: sqpeerd query <gateway-addr> <token> <rql>");
        return ExitCode::from(64);
    };
    let mut stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sqpeerd: cannot reach gateway {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let request = GatewayRequest {
        token: token.clone(),
        query: rql.clone(),
    };
    if let Err(e) = write_frame(&mut stream, &request) {
        eprintln!("sqpeerd: send failed: {e}");
        return ExitCode::FAILURE;
    }
    let response: GatewayResponse = match read_frame(&mut stream, &SchemaRegistry::new()) {
        Ok(Some(r)) => r,
        Ok(None) => {
            eprintln!("sqpeerd: gateway closed without answering");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("sqpeerd: bad reply: {e}");
            return ExitCode::FAILURE;
        }
    };
    match response {
        GatewayResponse::Answer {
            columns,
            rows,
            partial,
            ttfr_us,
            latency_us,
        } => {
            println!("{}", columns.join("\t"));
            for row in &rows {
                println!("{}", row.join("\t"));
            }
            println!(
                "# {} row(s), {}",
                rows.len(),
                if partial { "PARTIAL" } else { "complete" }
            );
            println!("# ttfr {ttfr_us} us, total {latency_us} us");
            ExitCode::SUCCESS
        }
        GatewayResponse::Unauthorized => {
            eprintln!("unauthorized");
            ExitCode::from(2)
        }
        GatewayResponse::OverQuota { quota } => {
            eprintln!("over quota: {quota}");
            ExitCode::from(3)
        }
        GatewayResponse::Error(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_status(args: &[String]) -> Result<(), String> {
    let [addr] = args else {
        return Err("usage: sqpeerd status <status-addr>".into());
    };
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("cannot reach {addr}: {e}"))?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("read failed: {e}"))?;
    print!("{text}");
    Ok(())
}

/// Fetches the status page and prints only the observability section —
/// pattern statistics, slow queries and flight-recorder dumps.
fn cmd_obs(args: &[String]) -> Result<(), String> {
    let [addr] = args else {
        return Err("usage: sqpeerd obs <status-addr>".into());
    };
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("cannot reach {addr}: {e}"))?;
    let mut text = String::new();
    stream
        .read_to_string(&mut text)
        .map_err(|e| format!("read failed: {e}"))?;
    match text.split_once("## obs\n") {
        Some((_, obs)) => print!("{obs}"),
        None => return Err("status page has no '## obs' section".into()),
    }
    Ok(())
}
