//! End-to-end distributed tests over real loopback TCP: bit-identity with
//! the local executor across partition shapes and worker counts, survival
//! of killed and hung workers via redispatch, clean handshake rejection of
//! incompatible workers, and a worker that stops while a peer is idle.

use std::sync::mpsc;
use std::time::Duration;

use valmod_cluster::coordinator::{run_distributed, CoordinatorConfig};
use valmod_cluster::job::{run_local, JobSpec};
use valmod_cluster::worker::{spawn_local_workers, Fault, LocalWorker, Worker, WorkerConfig};
use valmod_data::generators::{plant_motif, random_walk};
use valmod_obs::{Registry, SharedRecorder};
use valmod_serve::Timeouts;

fn spec(n: usize, l_min: usize, l_max: usize, seed: u64) -> JobSpec {
    let (mut values, _) = plant_motif(n, l_min + 4, 2, 0.001, seed);
    // Mix in a walk so profiles have varied structure across lengths.
    let walk = random_walk(n, seed + 1);
    for (v, w) in values.iter_mut().zip(&walk) {
        *v += 0.05 * w;
    }
    JobSpec::new(format!("job-{n}-{l_min}-{l_max}-{seed}"), values, l_min, l_max)
}

fn fast_config() -> CoordinatorConfig {
    CoordinatorConfig {
        shard_timeout: Duration::from_secs(20),
        connect: Timeouts::new().with_connect(Duration::from_secs(2)).with_retries(1),
        ..CoordinatorConfig::default()
    }
}

#[test]
fn distributed_matches_local_across_worker_counts_and_partitions() {
    let spec = spec(420, 18, 24, 3);
    let reference = run_local(&spec, 1, &SharedRecorder::noop()).unwrap();
    for (worker_count, parts) in [(1usize, 1usize), (2, 3), (4, 8)] {
        let workers = spawn_local_workers(worker_count, WorkerConfig::default()).unwrap();
        let addrs: Vec<String> = workers.iter().map(|w| w.addr()).collect();
        let cfg = CoordinatorConfig { parts_per_length: parts, ..fast_config() };
        let run = run_distributed(&spec, &addrs, &cfg, &SharedRecorder::noop()).unwrap();
        assert!(
            run.output.bits_equal(&reference),
            "distributed must be bit-identical (workers={worker_count}, parts={parts})"
        );
        assert_eq!(run.output.body().encode(), reference.body().encode());
        let done: usize = run.workers.iter().map(|w| w.shards_done).sum();
        assert!(done > 0);
        for w in workers {
            w.shutdown();
        }
    }
}

#[test]
fn job_survives_a_worker_killed_mid_job() {
    let spec = spec(380, 16, 22, 7);
    let reference = run_local(&spec, 4, &SharedRecorder::noop()).unwrap();

    // Worker 0 answers one shard then drops every later connection without
    // replying — the protocol-level shape of a SIGKILL mid-shard.
    let killer = LocalWorker::spawn(WorkerConfig {
        fault: Some(Fault::CloseAfter { after: 1 }),
        ..WorkerConfig::default()
    })
    .unwrap();
    let healthy = LocalWorker::spawn(WorkerConfig::default()).unwrap();
    let addrs = vec![killer.addr(), healthy.addr()];

    let registry = Registry::new();
    let recorder = SharedRecorder::from(registry.clone());
    let cfg = CoordinatorConfig { parts_per_length: 4, ..fast_config() };
    let run = run_distributed(&spec, &addrs, &cfg, &recorder).unwrap();

    assert!(run.output.bits_equal(&reference), "redispatch must not change a single bit");
    assert!(run.workers[0].died, "the killed worker must be reported dead");
    assert!(!run.workers[1].died);
    let snap = registry.snapshot();
    assert!(snap.counter("cluster.shards.dispatched").unwrap_or(0) > 0);
    assert!(
        snap.counter("cluster.shards.redispatched").unwrap_or(0) > 0,
        "the dead worker's shard must be redispatched"
    );
    healthy.shutdown();
    killer.shutdown();
}

#[test]
fn job_survives_a_hung_worker_via_the_shard_deadline() {
    let spec = spec(320, 16, 20, 11);
    let reference = run_local(&spec, 3, &SharedRecorder::noop()).unwrap();

    // Worker 0 stalls every reply past the first, longer than the shard
    // deadline: the coordinator must declare it dead and move on.
    let straggler = LocalWorker::spawn(WorkerConfig {
        fault: Some(Fault::HangAfter { after: 1, stall: Duration::from_secs(2) }),
        ..WorkerConfig::default()
    })
    .unwrap();
    let healthy = LocalWorker::spawn(WorkerConfig::default()).unwrap();
    let addrs = vec![straggler.addr(), healthy.addr()];

    let registry = Registry::new();
    let recorder = SharedRecorder::from(registry.clone());
    let cfg = CoordinatorConfig {
        parts_per_length: 3,
        shard_timeout: Duration::from_millis(300),
        ..fast_config()
    };
    let run = run_distributed(&spec, &addrs, &cfg, &recorder).unwrap();

    assert!(run.output.bits_equal(&reference), "straggler redispatch must not change bits");
    assert!(run.workers[0].died, "the hung worker must be declared dead");
    let snap = registry.snapshot();
    assert!(snap.counter("cluster.shards.retried").unwrap_or(0) > 0);
    assert!(snap.counter("cluster.shards.redispatched").unwrap_or(0) > 0);
    healthy.shutdown();
    straggler.shutdown();
}

#[test]
fn incompatible_workers_are_rejected_at_the_handshake() {
    let spec = spec(260, 16, 18, 13);
    let reference = run_local(&spec, 2, &SharedRecorder::noop()).unwrap();

    let stale = LocalWorker::spawn(WorkerConfig {
        advertise_version: Some(999),
        ..WorkerConfig::default()
    })
    .unwrap();
    let healthy = LocalWorker::spawn(WorkerConfig::default()).unwrap();

    // Mixed pool: the stale worker is excluded cleanly, the job completes.
    let registry = Registry::new();
    let recorder = SharedRecorder::from(registry.clone());
    let cfg = fast_config();
    let run = run_distributed(&spec, &[stale.addr(), healthy.addr()], &cfg, &recorder).unwrap();
    assert!(run.output.bits_equal(&reference));
    let rejection = run.workers[0].rejected.as_ref().expect("stale worker rejected");
    assert!(rejection.contains("version mismatch"), "got {rejection}");
    assert_eq!(run.workers[0].shards_done, 0);
    assert!(registry.snapshot().counter("cluster.workers.rejected").unwrap_or(0) >= 1);

    // All-incompatible pool: a clean error before any work is dispatched.
    let err = run_distributed(&spec, &[stale.addr()], &cfg, &SharedRecorder::noop()).unwrap_err();
    assert!(err.to_string().contains("no compatible workers"), "got {err}");

    stale.shutdown();
    healthy.shutdown();
}

#[test]
fn a_plain_serve_server_is_rejected_for_missing_capability() {
    use valmod_serve::{EngineConfig, QueryEngine, Server};
    let server = Server::bind("127.0.0.1:0", QueryEngine::new(EngineConfig::default())).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());

    let spec = spec(200, 16, 17, 17);
    let err = run_distributed(
        &spec,
        std::slice::from_ref(&addr),
        &fast_config(),
        &SharedRecorder::noop(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("no compatible workers"), "got {err}");
    assert!(err.to_string().contains("cluster"), "rejection should name the capability: {err}");

    let mut client = valmod_serve::Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    handle.join().unwrap().unwrap();
}

#[test]
fn unknown_job_answers_the_stable_error_kind() {
    let worker = LocalWorker::spawn(WorkerConfig::default()).unwrap();
    let mut client = valmod_serve::Client::connect(worker.addr()).unwrap();
    let work =
        valmod_serve::Value::parse(r#"{"cmd":"work","job":"ghost","l":16,"k_start":8,"k_end":10}"#)
            .unwrap();
    let err = client.roundtrip_value(&work).unwrap_err();
    assert!(
        matches!(err, valmod_serve::ServeError::UnknownSeries(_)),
        "unknown job must map to the unknown_series kind, got {err:?}"
    );
    // Shutdown half-closes our still-open connection, so it cannot keep
    // the worker running.
    worker.shutdown();
    drop(client);
}

#[test]
fn a_worker_stops_while_a_peer_is_idle() {
    let worker =
        Worker::bind("127.0.0.1:0", WorkerConfig::default(), SharedRecorder::noop()).unwrap();
    let addr = worker.local_addr().unwrap();
    let (tx, done) = mpsc::channel();
    std::thread::spawn(move || tx.send(worker.run()));

    // A coordinator-style connection: one round trip, then it sits idle
    // with its handler parked in the read.
    let mut idle = valmod_serve::Client::connect(addr).unwrap();
    idle.ping().unwrap();
    valmod_serve::Client::connect(addr).unwrap().shutdown().unwrap();

    let stopped = done.recv_timeout(Duration::from_secs(5));
    drop(idle);
    assert!(
        matches!(stopped, Ok(Ok(()))),
        "run() must return within 5 s of shutdown while a peer is idle, got {stopped:?}"
    );
}
