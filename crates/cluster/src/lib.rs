//! # valmod-cluster
//!
//! Distributed variable-length motif discovery: a coordinator/worker
//! system that shards the ℓmin..ℓmax sweep of exact STOMP passes across a
//! pool of worker processes and merges the partial profiles **bit-
//! identically** to a single-node run.
//!
//! The subsystem rests on one algebraic fact, proven and property-tested
//! in `valmod-mp`: the lexicographic `(distance, index)` min that folds
//! partial matrix profiles is associative, commutative, and *idempotent*.
//! Shards may therefore execute in any order, on any worker, any number
//! of times — redispatching work from a dead or hung worker needs no
//! distributed bookkeeping, because duplicate partials merge to the same
//! bits.
//!
//! Layers:
//!
//! * [`plan`] — the partition plan: (length × cell-balanced diagonal
//!   range) shards, reusing [`valmod_mp::diagonal_chunks`];
//! * [`wire`] — the worker protocol, the same line-delimited exact-`f64`
//!   JSON framing as `valmod-serve` plus `load_job`/`work`/`drop_job`,
//!   with the shared versioned `hello` handshake;
//! * [`worker`] — the TCP worker ([`worker::Worker`],
//!   [`worker::LocalWorker`] for in-process pools), a service on the serve
//!   layer's one `LineServer` (accept loop, bounded framing, send-stall
//!   limit, shutdown that half-closes idle peers), with injectable fault
//!   modes for the check oracle;
//! * [`coordinator`] — pool validation, dispatch with per-shard
//!   deadlines, retry-with-backoff, redispatch from dead workers;
//! * [`job`] — the job spec, the canonical output body (per-length FNV
//!   digests over exact profile bits), and [`job::run_local`], the
//!   byte-for-byte reference every distributed run is diffed against.
//!
//! ## Quick example (in-process workers)
//!
//! ```
//! use valmod_cluster::coordinator::{run_distributed, CoordinatorConfig};
//! use valmod_cluster::job::{run_local, JobSpec};
//! use valmod_cluster::worker::{spawn_local_workers, WorkerConfig};
//! use valmod_obs::SharedRecorder;
//!
//! let (values, _) = valmod_data::generators::plant_motif(400, 24, 2, 0.001, 7);
//! let spec = JobSpec::new("demo", values, 20, 26);
//! let workers = spawn_local_workers(2, WorkerConfig::default()).unwrap();
//! let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
//!
//! let cfg = CoordinatorConfig::default();
//! let run = run_distributed(&spec, &addrs, &cfg, &SharedRecorder::noop()).unwrap();
//! let local = run_local(&spec, addrs.len(), &SharedRecorder::noop()).unwrap();
//! assert!(run.output.bits_equal(&local));
//! for w in workers {
//!     w.shutdown();
//! }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod coordinator;
pub mod job;
pub mod plan;
pub mod wire;
pub mod worker;

pub use coordinator::{run_distributed, CoordinatorConfig, DistributedRun, WorkerReport};
pub use job::{run_local, JobOutput, JobSpec};
pub use plan::{Plan, Shard};
pub use wire::ClusterRequest;
pub use worker::{spawn_local_workers, Fault, LocalWorker, Worker, WorkerConfig};
