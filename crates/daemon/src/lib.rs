//! Deployment layer for the SQPeer middleware: real clocks, a loopback
//! transport with the wire codec on the path, the `sqpeerd` TCP peer
//! host and the multi-tenant gateway.
//!
//! The crate's organizing claim is that the [`NodeLogic`] state machines
//! validated under the virtual-time simulator run *unchanged* here: the
//! daemon swaps the substrate (a [`Transport`] implementation), never
//! the protocol. `group` assembles and drives tenant peer groups
//! against the trait; `host` puts a group behind real TCP sockets;
//! `gateway` routes authenticated tenants to their (isolated) hosts.
//!
//! [`NodeLogic`]: sqpeer_net::NodeLogic
//! [`Transport`]: sqpeer_net::Transport

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
pub mod gateway;
pub mod group;
pub mod host;
mod loopback;

pub use clock::RealClock;
pub use gateway::{spawn_gateway, Admission, GatewayConfig, GatewayHandle, Quotas, TenantConfig};
pub use group::{assemble, await_outcome, outcome, pose, Group, GroupSpec};
pub use host::{spawn_host, HostConfig, HostHandle};
pub use loopback::LoopbackNet;
