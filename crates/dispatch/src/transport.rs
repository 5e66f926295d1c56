//! How workers are launched: the object-safe [`Transport`] trait and
//! its production implementation, [`SshExec`].
//!
//! A transport knows three things: how to **spawn** a
//! `repro shard worker` described by a [`SpawnRequest`] on a given
//! [`Host`], how to **poll** the resulting [`WorkerHandle`] without
//! blocking, and how to **fetch** an artifact back from the host after
//! the worker exits. The dispatcher never touches `std::process`
//! directly — which is what makes the [`FaultyTransport`] test double
//! (and the CI kill-a-worker smoke job) possible without conditional
//! compilation.
//!
//! [`FaultyTransport`]: crate::FaultyTransport

use crate::hosts::{Host, HostKind};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use wcs_shard::WorkerInvocation;

/// One worker launch the dispatcher wants: which shard, which attempt
/// (1-based), the fully rendered invocation, and where to say "exited".
#[derive(Debug, Clone)]
pub struct SpawnRequest {
    /// Shard index within the plan.
    pub shard: usize,
    /// 1-based attempt counter (first try = 1).
    pub attempt: usize,
    /// The worker command to render behind the transport.
    pub invocation: WorkerInvocation,
    /// Signalled once when the worker exits, so the dispatcher wakes
    /// without polling. Handles that cannot tell may ignore it; the
    /// dispatcher still polls them at its heartbeat period.
    pub wake: mpsc::Sender<()>,
}

/// The observable state of a launched worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkerStatus {
    /// Still running (or status unknowable without blocking).
    Running,
    /// Exited; `code` is the exit code (`Some(0)` is the only success;
    /// `None` means killed by a signal or unobservable) and `detail` is a
    /// human-readable rendering of how it ended.
    Exited {
        /// The worker's exit code, if it had one.
        code: Option<i32>,
        /// Rendered exit status (or the I/O error that hid it).
        detail: String,
    },
}

/// A launched worker the dispatcher can poll and kill. Implementations
/// must never block on a worker that is still running, and both
/// operations must be idempotent.
pub trait WorkerHandle: Send {
    /// Current status without blocking. I/O errors while checking fold
    /// into `Exited { code: None, .. }` — from the dispatcher's seat,
    /// "can't observe the worker" and "worker died" demand the same
    /// response: requeue.
    fn poll(&mut self) -> WorkerStatus;
    /// Terminate the worker and reap it. Must be safe to call after
    /// exit.
    fn kill(&mut self);
}

/// Launch mechanism abstraction: spawn on a host, fetch artifacts back.
pub trait Transport: Send + Sync {
    /// Short name for telemetry (`"exec"`, `"faulty"`, ...).
    fn label(&self) -> &'static str;
    /// Launch `req` on `host`.
    fn spawn(&self, host: &Host, req: &SpawnRequest) -> io::Result<Box<dyn WorkerHandle>>;
    /// Pull `path` back from `host` after a worker exits. The default
    /// assumes a shared plan directory and does nothing.
    fn fetch(&self, _host: &Host, _path: &Path) -> io::Result<()> {
        Ok(())
    }
}

/// [`WorkerHandle`] over a subprocess whose stdout is piped to a drain
/// thread. The worker writes its partial to disk, not stdout, so the
/// pipe closes only when the process (or its exec wrapper) exits; the
/// drain thread then sets `stdout_closed` (a `Release` store, paired with
/// the `Acquire` load in `poll`) and sends on the request's wake channel.
pub struct ChildHandle {
    child: Child,
    stdout_closed: Arc<AtomicBool>,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl ChildHandle {
    /// Spawn `cmd` with stdout piped and start its drain thread.
    pub fn spawn(mut cmd: Command, wake: mpsc::Sender<()>) -> io::Result<ChildHandle> {
        let mut child = cmd.stdout(Stdio::piped()).spawn()?;
        let mut stdout = child.stdout.take().expect("stdout is piped");
        let stdout_closed = Arc::new(AtomicBool::new(false));
        let closed = stdout_closed.clone();
        let drain = std::thread::Builder::new()
            .name("worker-stdout".to_string())
            .spawn(move || {
                let _ = io::copy(&mut stdout, &mut io::sink());
                closed.store(true, Ordering::Release);
                let _ = wake.send(());
            });
        match drain {
            Ok(drain) => Ok(ChildHandle {
                child,
                stdout_closed,
                drain: Some(drain),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(e)
            }
        }
    }
}

impl WorkerHandle for ChildHandle {
    fn poll(&mut self) -> WorkerStatus {
        // A closed stdout means the process is exiting: reap it (and the
        // finished drain thread) rather than race its last microseconds
        // and wait out a poll period.
        let status = if self.stdout_closed.load(Ordering::Acquire) {
            if let Some(drain) = self.drain.take() {
                let _ = drain.join();
            }
            self.child.wait().map(Some)
        } else {
            self.child.try_wait()
        };
        match status {
            Ok(None) => WorkerStatus::Running,
            Ok(Some(status)) => WorkerStatus::Exited {
                code: status.code(),
                detail: status.to_string(),
            },
            Err(e) => WorkerStatus::Exited {
                code: None,
                detail: format!("wait failed: {e}"),
            },
        }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Command-template transport: [`HostKind::Local`] hosts get plain
/// subprocesses of `exe`; [`HostKind::Exec`] hosts get the worker argv
/// appended to the host's wrapper prefix — `ssh user@hostA
/// /path/to/repro shard worker ...`, or any other exec wrapper. Despite
/// the name, nothing here is ssh-specific; ssh is just the wrapper the
/// hosts-file format documents first.
pub struct SshExec {
    /// The `repro` binary for local hosts, and the default remote
    /// binary for exec hosts that don't set `exe=`.
    pub exe: PathBuf,
}

impl SshExec {
    /// Build a template transport around `exe`.
    pub fn new(exe: impl Into<PathBuf>) -> SshExec {
        SshExec { exe: exe.into() }
    }
}

impl Transport for SshExec {
    fn label(&self) -> &'static str {
        "exec"
    }

    fn spawn(&self, host: &Host, req: &SpawnRequest) -> io::Result<Box<dyn WorkerHandle>> {
        let mut cmd = match &host.kind {
            HostKind::Local => Command::new(&self.exe),
            HostKind::Exec { prefix, exe, .. } => {
                let mut cmd = Command::new(&prefix[0]);
                cmd.args(&prefix[1..])
                    .arg(exe.as_deref().unwrap_or(&self.exe));
                cmd
            }
        };
        cmd.args(req.invocation.args());
        Ok(Box::new(ChildHandle::spawn(cmd, req.wake.clone())?))
    }

    fn fetch(&self, host: &Host, path: &Path) -> io::Result<()> {
        let HostKind::Exec {
            fetch: Some(argv), ..
        } = &host.kind
        else {
            return Ok(()); // shared directory: nothing to pull
        };
        let rendered: Vec<String> = argv
            .iter()
            .map(|tok| tok.replace("{path}", &path.display().to_string()))
            .collect();
        let status = Command::new(&rendered[0])
            .args(&rendered[1..])
            .stdout(Stdio::null())
            .status()?;
        if !status.success() {
            return Err(io::Error::other(format!(
                "fetch command {:?} exited {status}",
                rendered.join(" ")
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosts::HostPool;

    fn true_host() -> Host {
        Host {
            label: "wrap".to_string(),
            slots: 1,
            kind: HostKind::Exec {
                // `env` is a benign exec wrapper present everywhere; the
                // rendered command is `env true <worker args...>` and
                // `true` ignores its arguments.
                prefix: vec!["env".to_string()],
                exe: Some(PathBuf::from("true")),
                fetch: None,
            },
        }
    }

    fn req(wake: mpsc::Sender<()>) -> SpawnRequest {
        SpawnRequest {
            shard: 0,
            attempt: 1,
            invocation: WorkerInvocation::new("/nonexistent/manifest.toml"),
            wake,
        }
    }

    #[test]
    fn exec_host_wraps_the_worker_command() {
        let t = SshExec::new("/nonexistent/repro");
        let (wake, woken) = mpsc::channel();
        let mut handle = t.spawn(&true_host(), &req(wake)).unwrap();
        woken
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("`env true ...` exited without a wake");
        match handle.poll() {
            WorkerStatus::Exited { code, .. } => {
                assert_eq!(code, Some(0), "`env true ...` should exit 0")
            }
            WorkerStatus::Running => panic!("woken but still running"),
        }
    }

    #[test]
    fn local_spawn_failure_is_an_io_error() {
        let t = SshExec::new("/nonexistent/repro");
        let pool = HostPool::local(1);
        assert!(t.spawn(&pool.hosts[0], &req(mpsc::channel().0)).is_err());
    }

    #[test]
    fn kill_after_exit_is_safe() {
        let t = SshExec::new("/nonexistent/repro");
        let mut handle = t.spawn(&true_host(), &req(mpsc::channel().0)).unwrap();
        while handle.poll() == WorkerStatus::Running {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        handle.kill(); // must not panic
    }
}
