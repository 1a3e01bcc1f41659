//! Process spawning and byte transport between coordinator and workers.
//!
//! Two transports, one protocol: `Pipe` talks over the child's
//! stdin/stdout (portable, zero setup), `Socket` over a Unix domain
//! socket whose path the coordinator passes down via environment (the
//! child's stdio stays free for logging). Both carry the same frame
//! stream; `tests/conformance.rs` pins bit-identical graphs across them.
//!
//! Every frame write passes a `transport.send` fault gate *before* any
//! byte reaches the wire, and injected failures retry under capped
//! backoff — the same recovery contract as spill IO ([`SEND_ATTEMPTS`]
//! = 16 outlasts any injectable budget, span ≤ 12). A *genuine* write
//! error is not retried: the stream may hold a partial frame, so the
//! caller gets a typed error and treats the peer as lost.

use crate::error::DistribError;
use crate::wire::frame_bytes;
use cnc_faults::{backoff, Faults, Site};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Environment variable that flips a spawned binary into worker mode
/// (see [`crate::maybe_run_worker`]).
pub const ENV_WORKER: &str = "CNC_DISTRIB_WORKER";

/// Environment variable carrying the Unix socket path for `Socket`
/// transport; absent means pipe transport over stdin/stdout.
pub const ENV_SOCKET: &str = "CNC_DISTRIB_SOCKET";

/// Exit code of a worker killed by an injected `worker.exit` fault.
pub const EXIT_INJECTED: i32 = 17;

/// Retry budget for one frame send; outlasts any injectable failure
/// budget, so injected transport faults are always absorbed.
pub const SEND_ATTEMPTS: u32 = 16;

/// How long the coordinator waits for a spawned worker to connect its
/// socket before declaring the spawn failed.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(10);

/// How the coordinator and workers exchange frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Transport {
    /// The worker's stdin/stdout, inherited from `Command` pipes.
    #[default]
    Pipe,
    /// A per-worker Unix domain socket (path passed via [`ENV_SOCKET`]).
    Socket,
}

impl Transport {
    /// The transport's flag/report name.
    pub fn name(self) -> &'static str {
        match self {
            Transport::Pipe => "pipe",
            Transport::Socket => "socket",
        }
    }
}

impl std::str::FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Transport, String> {
        match s {
            "pipe" => Ok(Transport::Pipe),
            "socket" => Ok(Transport::Socket),
            other => Err(format!("unknown transport {other:?} (expected pipe|socket)")),
        }
    }
}

impl std::fmt::Display for Transport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Process-lifetime count of transport send retries (injected faults
/// absorbed by backoff). Workers report theirs over the wire; the
/// coordinator takes a delta around each build.
static TRANSPORT_RETRIES: AtomicU64 = AtomicU64::new(0);

/// Current process's transport retry count.
pub fn transport_retries() -> u64 {
    TRANSPORT_RETRIES.load(Ordering::Relaxed)
}

/// Sends one frame: fault gate (with retries) first, then a single
/// `write_all` + flush. `fault_key` identifies the send for the seeded
/// schedule — the coordinator and each worker key by their own frame
/// ordinals, salted per direction.
pub fn send_frame<W: Write>(
    out: &mut W,
    kind: u8,
    payload: &[u8],
    fault_key: u64,
) -> Result<(), DistribError> {
    let faults = Faults::global();
    let mut attempt = 0;
    loop {
        match faults.inject_io(Site::TransportSend, fault_key) {
            Ok(()) => break,
            Err(last) => {
                attempt += 1;
                if attempt >= SEND_ATTEMPTS {
                    return Err(DistribError::TransportExhausted { attempts: attempt, last });
                }
                TRANSPORT_RETRIES.fetch_add(1, Ordering::Relaxed);
                backoff(attempt, 20, 2_000);
            }
        }
    }
    let bytes = frame_bytes(kind, payload);
    out.write_all(&bytes)
        .and_then(|()| out.flush())
        .map_err(|source| DistribError::Transport { context: "frame write", source })
}

/// One spawned worker process and its byte streams. The child handle is
/// shared so the coordinator's main loop can kill it (chaos hook) while
/// the reader thread waits on it.
pub struct WorkerLink {
    /// The worker's ordinal.
    pub worker: usize,
    /// OS process id (reporting).
    pub pid: u32,
    /// Shared child handle (kill/wait).
    pub child: Arc<Mutex<Child>>,
    /// Coordinator → worker byte stream.
    pub writer: Box<dyn Write + Send>,
    /// Worker → coordinator byte stream.
    pub reader: Box<dyn Read + Send>,
}

/// Spawns worker `worker` running `program` in worker mode over the
/// given transport. For `Socket`, `sock_dir` hosts the per-worker
/// socket files.
pub fn spawn_worker(
    program: &Path,
    transport: Transport,
    sock_dir: Option<&Path>,
    worker: usize,
) -> Result<WorkerLink, DistribError> {
    let spawn_err = |source| DistribError::Spawn { worker, source };
    let mut command = Command::new(program);
    command.arg("--distrib-worker").env(ENV_WORKER, "1").stderr(Stdio::inherit());
    match transport {
        Transport::Pipe => {
            command.stdin(Stdio::piped()).stdout(Stdio::piped());
            let mut child = command.spawn().map_err(spawn_err)?;
            let writer = child.stdin.take().expect("piped stdin");
            let reader = child.stdout.take().expect("piped stdout");
            let pid = child.id();
            Ok(WorkerLink {
                worker,
                pid,
                child: Arc::new(Mutex::new(child)),
                writer: Box::new(writer),
                reader: Box::new(io::BufReader::new(reader)),
            })
        }
        Transport::Socket => {
            #[cfg(unix)]
            {
                use std::os::unix::net::UnixListener;
                let dir = sock_dir.expect("socket transport requires a socket dir");
                let path = dir.join(format!("worker-{worker}.sock"));
                let listener = UnixListener::bind(&path).map_err(spawn_err)?;
                listener.set_nonblocking(true).map_err(spawn_err)?;
                command.env(ENV_SOCKET, &path).stdin(Stdio::null()).stdout(Stdio::inherit());
                let mut child = command.spawn().map_err(spawn_err)?;
                let pid = child.id();
                let stream = accept_with_timeout(&listener, &mut child, worker)?;
                let writer = stream.try_clone().map_err(spawn_err)?;
                Ok(WorkerLink {
                    worker,
                    pid,
                    child: Arc::new(Mutex::new(child)),
                    writer: Box::new(writer),
                    reader: Box::new(io::BufReader::new(stream)),
                })
            }
            #[cfg(not(unix))]
            {
                let _ = sock_dir;
                Err(DistribError::Protocol {
                    detail: "socket transport requires a Unix platform".into(),
                })
            }
        }
    }
}

#[cfg(unix)]
fn accept_with_timeout(
    listener: &std::os::unix::net::UnixListener,
    child: &mut Child,
    worker: usize,
) -> Result<std::os::unix::net::UnixStream, DistribError> {
    let deadline = Instant::now() + ACCEPT_TIMEOUT;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|source| DistribError::Spawn { worker, source })?;
                return Ok(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // A child that died before connecting will never accept.
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(DistribError::Spawn {
                        worker,
                        source: io::Error::other(format!(
                            "worker exited before connecting: {status}"
                        )),
                    });
                }
                if Instant::now() >= deadline {
                    return Err(DistribError::Spawn {
                        worker,
                        source: io::Error::new(
                            io::ErrorKind::TimedOut,
                            "worker never connected its socket",
                        ),
                    });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(DistribError::Spawn { worker, source: e }),
        }
    }
}

/// The worker side of the connection, resolved from the environment:
/// [`ENV_SOCKET`] set → connect the socket; otherwise stdin/stdout.
pub fn worker_connection() -> io::Result<(Box<dyn Read + Send>, Box<dyn Write + Send>)> {
    match std::env::var_os(ENV_SOCKET) {
        Some(path) => {
            #[cfg(unix)]
            {
                use std::os::unix::net::UnixStream;
                let stream = UnixStream::connect(PathBuf::from(path))?;
                let writer = stream.try_clone()?;
                Ok((Box::new(io::BufReader::new(stream)), Box::new(writer)))
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Err(io::Error::other("socket transport requires a Unix platform"))
            }
        }
        None => Ok((Box::new(io::BufReader::new(io::stdin())), Box::new(io::stdout()))),
    }
}

/// A self-cleaning temp directory for socket files (mirrors the spill
/// layer's `SpillDir`).
pub struct SocketDir {
    path: PathBuf,
}

impl SocketDir {
    /// Creates a fresh process-unique directory under the system tmp.
    pub fn create() -> io::Result<SocketDir> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let ordinal = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("cnc-distrib-{}-{ordinal}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(SocketDir { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SocketDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnc_faults::FaultPlan;
    use std::sync::Mutex as StdMutex;

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: StdMutex<()> = StdMutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn send_frame_retries_injected_faults_and_delivers() {
        let _serial = lock();
        let faults = Faults::global();
        // span ≤ 12 < SEND_ATTEMPTS: every injected schedule is absorbed.
        let plan = FaultPlan::new(31, 1.0).with_span(12).only(&[Site::TransportSend]);
        let _guard = faults.arm(plan);
        let before = transport_retries();
        let mut out = Vec::new();
        send_frame(&mut out, crate::wire::FRAME_IDLE, &[], 5).unwrap();
        assert!(transport_retries() > before, "p=1 must have cost retries");
        let frame = crate::wire::read_frame(&mut out.as_slice()).unwrap().unwrap();
        assert_eq!(frame.kind, crate::wire::FRAME_IDLE);
    }

    #[test]
    fn send_frame_without_faults_is_clean() {
        let _serial = lock();
        let mut out = Vec::new();
        send_frame(&mut out, crate::wire::FRAME_BYE, &[1, 2, 3], 0).unwrap();
        let frame = crate::wire::read_frame(&mut out.as_slice()).unwrap().unwrap();
        assert_eq!(frame.kind, crate::wire::FRAME_BYE);
        assert_eq!(frame.payload, vec![1, 2, 3]);
    }

    #[test]
    fn socket_dir_cleans_up() {
        let dir = SocketDir::create().unwrap();
        let path = dir.path().to_path_buf();
        assert!(path.is_dir());
        drop(dir);
        assert!(!path.exists());
    }

    #[test]
    fn transport_parses_and_displays() {
        assert_eq!("pipe".parse::<Transport>().unwrap(), Transport::Pipe);
        assert_eq!("socket".parse::<Transport>().unwrap(), Transport::Socket);
        assert!("carrier-pigeon".parse::<Transport>().is_err());
        assert_eq!(Transport::Socket.to_string(), "socket");
    }
}
