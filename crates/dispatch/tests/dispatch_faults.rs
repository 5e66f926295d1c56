//! Fault-injection integration tests: prove the dispatcher's central
//! promise — workers can die, spawns can fail, heartbeats can go
//! silent, and the merged report is still **byte-identical** to a
//! single-process run; and when a shard exhausts its retry budget the
//! failure is the structured [`DispatchError::Exhausted`].
//!
//! The delivery guarantees are also stated as properties over random
//! fault plans (in the manner of Bracha reliable broadcast, applied to
//! shard rows): **validity** — the merged CSV equals the serial run;
//! **no duplication** — every plan row is delivered exactly once; and
//! **integrity** — the merge accepts only partials from the plan.
//!
//! Workers here are threads, not subprocesses (a `ThreadExec`
//! transport running `wcs_shard::partial::run_worker` directly), so the
//! tests stay fast and free of binary-path plumbing; the CLI-level
//! subprocess path is covered by `crates/bench/tests/dispatch_cli.rs`
//! and the CI `dispatch-smoke` job.

use proptest::prelude::*;
use std::io;
use std::sync::Mutex;
use std::time::Duration;
use wcs_dispatch::{
    BackoffPolicy, DispatchError, DispatchOptions, Dispatcher, Fault, FaultyTransport,
    HeartbeatWriter, Host, HostPool, SpawnRequest, Transport, WorkerHandle, WorkerStatus,
};
use wcs_runtime::{AnyWorkload, Engine, Sweep};
use wcs_shard::{merge_dir, partial_path, PartialReport, ShardManifest, ShardPlan, ShardStrategy};

fn sweep() -> Sweep {
    Sweep::new("dispatch-it")
        .ds(&[10.0, 20.0, 30.0, 40.0, 50.0, 60.0])
        .samples(60)
}

/// The single-process reference bytes every dispatch run must match.
fn serial_csv() -> String {
    AnyWorkload::Model(sweep())
        .run(&Engine::new(1), None)
        .report
        .to_csv()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("wcs-dispatch-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fast_options() -> DispatchOptions {
    DispatchOptions {
        threads_per_worker: 1,
        heartbeat_ms: 5,
        backoff: BackoffPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(10),
            seed: 42,
        },
        ..DispatchOptions::default()
    }
}

/// In-process transport: each "worker" is a thread running the real
/// `run_worker` over the manifest, with its own heartbeat writes —
/// exactly the work a subprocess worker does, minus the exec.
struct ThreadExec;

struct ThreadHandle {
    join: Option<std::thread::JoinHandle<Result<(), String>>>,
    result: Option<WorkerStatus>,
}

impl Transport for ThreadExec {
    fn label(&self) -> &'static str {
        "thread"
    }

    fn spawn(&self, _host: &Host, req: &SpawnRequest) -> io::Result<Box<dyn WorkerHandle>> {
        let inv = req.invocation.clone();
        let join = std::thread::spawn(move || {
            let _hb = inv.heartbeat.clone().map(|path| {
                HeartbeatWriter::start(path, Duration::from_millis(inv.heartbeat_ms.max(1)))
            });
            let manifest = ShardManifest::load(&inv.manifest).map_err(|e| e.to_string())?;
            let engine = Engine::new(inv.threads);
            let cache = inv.cache_dir.clone().map(wcs_runtime::ResultCache::new);
            let cache_ref = cache.as_ref().map(|c| c as &dyn wcs_runtime::ResultIndex);
            let partial = wcs_shard::partial::run_worker(&manifest, &engine, cache_ref);
            let dir = inv
                .manifest
                .parent()
                .ok_or_else(|| "manifest has no parent".to_string())?;
            partial
                .save(&wcs_shard::partial_path(dir, manifest.shard))
                .map_err(|e| e.to_string())
        });
        Ok(Box::new(ThreadHandle {
            join: Some(join),
            result: None,
        }))
    }
}

impl WorkerHandle for ThreadHandle {
    fn poll(&mut self) -> WorkerStatus {
        if let Some(st) = &self.result {
            return st.clone();
        }
        let finished = self.join.as_ref().is_some_and(|j| j.is_finished());
        if !finished {
            return WorkerStatus::Running;
        }
        let st = match self.join.take().expect("not yet joined").join() {
            Ok(Ok(())) => WorkerStatus::Exited {
                code: Some(0),
                detail: "ok".to_string(),
            },
            Ok(Err(e)) => WorkerStatus::Exited {
                code: Some(1),
                detail: e,
            },
            Err(_) => WorkerStatus::Exited {
                code: None,
                detail: "worker thread panicked".to_string(),
            },
        };
        self.result = Some(st.clone());
        st
    }

    fn kill(&mut self) {
        // Threads cannot be killed; wait them out and report failure so
        // the dispatcher's accounting stays truthful.
        if let Some(j) = self.join.take() {
            let _ = j.join();
            self.result = Some(WorkerStatus::Exited {
                code: None,
                detail: "killed".to_string(),
            });
        }
    }
}

#[test]
fn requeue_after_death_is_bitwise_identical_at_k2_and_k3() {
    let want = serial_csv();
    for k in [2usize, 3] {
        let dir = tmpdir(&format!("kill-k{k}"));
        // Kill shard 1's first attempt at its very first heartbeat.
        let transport = FaultyTransport::new(Box::new(ThreadExec)).with_fault(
            1,
            1,
            Fault::KillAfterBeats { beats: 0 },
        );
        let pool = HostPool::local(k);
        let dispatcher = Dispatcher::new(&transport, &pool, fast_options());
        let outcome = dispatcher
            .run(&dir, sweep(), k, ShardStrategy::Contiguous, None)
            .unwrap_or_else(|e| panic!("k={k}: {e}"));
        assert_eq!(
            outcome.merge.report.to_csv(),
            want,
            "k={k}: dispatch output diverged from the single-process run"
        );
        assert!(outcome.stats.deaths >= 1, "k={k}: the kill fault must fire");
        assert!(
            outcome.stats.requeues >= 1,
            "k={k}: the dead shard must requeue"
        );
        assert_eq!(outcome.merge.shards, k);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn transient_spawn_failure_retries_with_backoff_and_still_matches() {
    let want = serial_csv();
    let dir = tmpdir("spawn-retry");
    // Shard 0's first spawn fails; its second succeeds.
    let transport = FaultyTransport::new(Box::new(ThreadExec)).with_fault(0, 1, Fault::FailSpawn);
    let pool = HostPool::local(2);
    let dispatcher = Dispatcher::new(&transport, &pool, fast_options());
    let outcome = dispatcher
        .run(&dir, sweep(), 2, ShardStrategy::Contiguous, None)
        .expect("one transient spawn failure must not fail the run");
    assert_eq!(outcome.merge.report.to_csv(), want);
    assert_eq!(outcome.stats.retries, 1);
    assert_eq!(outcome.stats.deaths, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn give_up_after_max_retries_is_structured() {
    let dir = tmpdir("giveup");
    // max_retries = 2 → 3 attempts; fail all three spawns of shard 0.
    let mut transport = FaultyTransport::new(Box::new(ThreadExec));
    transport.add_spec("spawn-fail:0x3").unwrap();
    let pool = HostPool::local(2);
    let dispatcher = Dispatcher::new(&transport, &pool, fast_options());
    let err = dispatcher
        .run(&dir, sweep(), 2, ShardStrategy::Contiguous, None)
        .expect_err("shard 0 must exhaust its retry budget");
    match &err {
        DispatchError::Exhausted {
            shard,
            attempts,
            last,
        } => {
            assert_eq!(*shard, 0);
            assert_eq!(*attempts, 3);
            assert!(last.contains("injected spawn failure"), "{last}");
        }
        other => panic!("expected Exhausted, got {other}"),
    }
    let rendered = err.to_string();
    assert!(
        rendered.contains("gave up on shard 0 after 3 attempt(s)"),
        "{rendered}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Transport decorator whose chosen (shard, attempt) hangs forever
/// without heartbeats — the deterministic stand-in for a worker whose
/// host fell off the network.
struct HangFirst {
    inner: ThreadExec,
    hung: Mutex<Vec<(usize, usize)>>,
}

struct HungHandle {
    killed: bool,
}

impl Transport for HangFirst {
    fn label(&self) -> &'static str {
        "hang-first"
    }

    fn spawn(&self, host: &Host, req: &SpawnRequest) -> io::Result<Box<dyn WorkerHandle>> {
        if self
            .hung
            .lock()
            .unwrap()
            .contains(&(req.shard, req.attempt))
        {
            return Ok(Box::new(HungHandle { killed: false }));
        }
        self.inner.spawn(host, req)
    }
}

impl WorkerHandle for HungHandle {
    fn poll(&mut self) -> WorkerStatus {
        if self.killed {
            WorkerStatus::Exited {
                code: None,
                detail: "killed while hung".to_string(),
            }
        } else {
            WorkerStatus::Running
        }
    }

    fn kill(&mut self) {
        self.killed = true;
    }
}

#[test]
fn heartbeat_silence_declares_the_worker_dead_and_requeues() {
    let want = serial_csv();
    let dir = tmpdir("silent");
    let transport = HangFirst {
        inner: ThreadExec,
        hung: Mutex::new(vec![(0, 1)]),
    };
    let pool = HostPool::local(2);
    let options = DispatchOptions {
        heartbeat_timeout: Duration::from_millis(150),
        ..fast_options()
    };
    let dispatcher = Dispatcher::new(&transport, &pool, options);
    let outcome = dispatcher
        .run(&dir, sweep(), 2, ShardStrategy::Contiguous, None)
        .expect("a silent worker must be replaced, not waited on forever");
    assert_eq!(outcome.merge.report.to_csv(), want);
    assert_eq!(outcome.stats.deaths, 1);
    assert_eq!(outcome.stats.requeues, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A random fault plan for `k` shards: each shard draws nothing, a kill
/// at beat 0..3, one or two spawn failures (fewer than the three
/// attempts `max_retries = 2` allows), or a muted heartbeat — written as
/// the `--fault` specs the CLI takes.
fn random_fault_specs(rng: &mut TestRng, k: usize) -> Vec<String> {
    (0..k)
        .filter_map(|shard| match rng.next_u64() % 4 {
            0 => None,
            1 => Some(format!("kill:{shard}@{}", rng.next_u64() % 3)),
            2 => Some(format!("spawn-fail:{shard}x{}", 1 + rng.next_u64() % 2)),
            _ => Some(format!("mute:{shard}")),
        })
        .collect()
}

/// A partial that is not shard `shard` of the `k`-shard contiguous plan
/// of [`sweep`]: the same shard of another seed, another sweep, another
/// shard count, or the other strategy.
fn foreign_partial(rng: &mut TestRng, k: usize, shard: usize) -> PartialReport {
    let ours = sweep();
    let (workload, k, strategy) = match rng.next_u64() % 4 {
        0 => {
            let seed = ours.seed + 1;
            (ours.seed(seed), k, ShardStrategy::Contiguous)
        }
        1 => (ours.samples(61), k, ShardStrategy::Contiguous),
        2 => (ours, k + 1, ShardStrategy::Contiguous),
        _ => (ours, k, ShardStrategy::Strided),
    };
    let plan = ShardPlan::new(workload.task_count(), k, strategy).unwrap();
    wcs_shard::partial::run_worker(
        &ShardManifest::new(workload, &plan, shard),
        &Engine::serial(),
        None,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Validity, no duplication and integrity of the merge, whatever
    /// the fault plan.
    #[test]
    fn merge_guarantees_hold_under_random_fault_plans(k in 1usize..5, seed in 0u64..u64::MAX) {
        let mut rng = TestRng::new(seed);
        let specs = random_fault_specs(&mut rng, k);
        let mut transport = FaultyTransport::new(Box::new(ThreadExec));
        for spec in &specs {
            transport.add_spec(spec).unwrap();
        }
        let dir = tmpdir(&format!("prop-{seed:016x}"));
        let pool = HostPool::local(k);
        let outcome = Dispatcher::new(&transport, &pool, fast_options())
            .run(&dir, sweep(), k, ShardStrategy::Contiguous, None)
            .unwrap_or_else(|e| panic!("k={k} faults={specs:?}: {e}"));

        // Validity: the merge is the serial run.
        prop_assert_eq!(outcome.merge.report.to_csv(), serial_csv(), "k={} faults={:?}", k, specs);

        // No duplication: each shard was delivered by exactly one
        // attempt, and the delivered partials tile the plan's task
        // index space with every task's rows exactly once.
        prop_assert_eq!(outcome.stats.assignments, k as u64 + outcome.stats.deaths);
        prop_assert_eq!(outcome.merge.shards, k);
        let mut delivered: Vec<usize> = Vec::new();
        for shard in 0..k {
            let part = PartialReport::load(&partial_path(&dir, shard)).unwrap();
            let manifest = ShardManifest::load(&wcs_shard::manifest_path(&dir, shard)).unwrap();
            let rows_per_task = manifest.kind().rows_per_task();
            prop_assert_eq!((part.shard, part.k), (shard, k));
            prop_assert_eq!(part.report.rows.len(), manifest.indices().len() * rows_per_task);
            delivered.extend(manifest.indices());
        }
        delivered.sort_unstable();
        prop_assert_eq!(delivered, (0..sweep().task_count()).collect::<Vec<_>>());

        // Integrity: swap one shard's partial for one from outside the
        // plan, and the merge must refuse the set.
        let victim = (rng.next_u64() % k as u64) as usize;
        foreign_partial(&mut rng, k, victim)
            .save(&partial_path(&dir, victim))
            .unwrap();
        prop_assert!(
            merge_dir(&dir, None).is_err(),
            "k={} shard {}: a foreign partial was merged",
            k,
            victim
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
