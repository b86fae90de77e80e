//! `sc-runtime` — live fault-injected counting runtime.
//!
//! Everything elsewhere in this workspace *simulates* synchronous rounds;
//! this crate runs them for real: `n` OS threads each execute a
//! [`sc_protocol::Counter`] node, exchanging states through a lock-free
//! single-writer **mailbox plane** ([`mailbox`]) and pacing themselves
//! with a **self-clocked round loop** ([`clock`]). Up to `f` nodes are
//! wrapped in *actual* misbehaviour by the fault-injection layer
//! ([`plan`]): crashed, mute, delayed, equivocating, or replaying an
//! `sc-attack` [`Script`](sc_attack::Script) witness live.
//!
//! ## Deadline semantics and the Byzantine model
//!
//! Round `r` owns the wall-clock window `[r·period, (r+1)·period)`. A
//! node publishes its round-`r` state at the start of the window and
//! reads everyone else's at a fixed offset inside it. A message that is
//! not (yet) present — because the sender is slow, crashed, mute, or
//! published a torn slot — degrades to "no message received": the
//! receiver falls back to the last state it saw from that sender. That
//! is admissible because the paper's Byzantine model already charges any
//! misbehaviour, including silence, to the fault budget: a sender that
//! misses its deadline is *treated as faulty for that round*, and a
//! self-stabilising counter tolerates any transient corruption once the
//! faulty set stays within `f`. Slow nodes therefore cause graceful
//! degradation, never deadlock — no barrier ever blocks on a peer.
//!
//! ## Drivers
//!
//! [`live::run_live`] is the wall-clock driver: real threads, real
//! sleeps, a watchdog/recovery monitor timestamping stabilisation, and a
//! [`CounterHandle`] read path serving the
//! converged counter from a versioned atomic snapshot.
//! [`harness::run_deterministic`] drives the *same* node logic with a
//! virtual clock and a seeded scheduler, so every live scenario also
//! runs bit-reproducibly in CI.

pub mod clock;
pub mod harness;
pub mod live;
pub mod mailbox;
pub mod monitor;
pub mod node;
pub mod plan;
pub mod trace;

pub use clock::{RoundClock, RoundSchedule, VirtualClock, WallClock};
pub use harness::{run_deterministic, run_deterministic_obs};
pub use live::{run_live, run_live_obs, RunReport, RuntimeConfig};
pub use mailbox::{CounterHandle, MailboxPlane, OutputBoard, SnapshotCell};
pub use monitor::{MonitorCore, Recovery, StabilityEvent};
pub use node::{initial_states, NodeCore, PublishAction};
pub use plan::{FaultEntry, FaultKind, FaultPlan};
pub use trace::{MeteredReads, MonitorTrace, NodeTrace, RuntimeObs};

/// Re-export of the observability substrate, so downstream code can name
/// `sc_runtime::obs::FlightConfig` etc. without depending on `sc-obs`
/// directly.
pub use sc_obs as obs;

use std::fmt;

/// Parameter/validation error for runtime construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamError {
    message: String,
}

impl ParamError {
    pub fn constraint(message: impl Into<String>) -> Self {
        ParamError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime parameter error: {}", self.message)
    }
}

impl std::error::Error for ParamError {}
