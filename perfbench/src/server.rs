//! The server under test as a child process, and the NDJSON client side.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long any single response may take before the run is abandoned.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(60);

pub type Result<T> = std::result::Result<T, String>;

/// A running `qvsec-cli serve`. Dropping it kills the process and waits
/// for it, so no run leaves a server behind.
pub struct ServerProc {
    child: Child,
    stderr_drain: Option<JoinHandle<Vec<String>>>,
    /// The address the server announced.
    pub addr: String,
}

impl ServerProc {
    /// Spawns `bin serve --spec spec --addr 127.0.0.1:0 [--store store]` and
    /// waits for the `listening on` line (the registry, including any store
    /// replay, is built before the server binds).
    pub fn spawn(bin: &Path, spec: &Path, store: Option<&Path>) -> Result<ServerProc> {
        let mut command = Command::new(bin);
        command
            .arg("serve")
            .arg("--spec")
            .arg(spec)
            .arg("--addr")
            .arg("127.0.0.1:0");
        if let Some(store) = store {
            command.arg("--store").arg(store);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut reader = BufReader::new(stderr);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("server exited before listening: {line}"));
                }
                Ok(_) => {
                    if let Some(addr) = line.trim().strip_prefix("qvsec-serve listening on ") {
                        break addr.to_string();
                    }
                }
            }
        };
        Ok(ServerProc {
            child,
            stderr_drain: Some(std::thread::spawn(move || drain(reader))),
            addr,
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) of the server process, in KiB.
    pub fn vm_hwm_kib(&self) -> Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM in the server's status".to_string())
    }

    /// Opens one client connection.
    pub fn connect(&self) -> Result<Conn> {
        Conn::open(&self.addr)
    }

    /// Asks the server to drain and exit, and waits for it.
    pub fn shutdown(mut self) -> Result<()> {
        let mut conn = self.connect()?;
        conn.call(r#"{"op": "shutdown"}"#)?;
        drop(conn);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("wait for server: {e}"))?;
        self.join_drain();
        if status.success() {
            Ok(())
        } else {
            Err(format!("server exited with {status}"))
        }
    }

    fn join_drain(&mut self) {
        if let Some(handle) = self.stderr_drain.take() {
            for line in handle.join().unwrap_or_default() {
                eprintln!("server: {line}");
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.join_drain();
    }
}

/// Collects the server's stderr after the listening line; `error:` lines
/// are echoed when the server is reaped.
fn drain(reader: BufReader<ChildStderr>) -> Vec<String> {
    reader
        .lines()
        .map_while(|l| l.ok())
        .filter(|l| l.starts_with("error"))
        .collect()
}

/// One synchronous NDJSON connection: one request in flight at a time.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|_| stream.set_read_timeout(Some(RESPONSE_TIMEOUT)))
            .map_err(|e| format!("configure socket: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            writer,
            reader: BufReader::new(stream),
            buf: String::new(),
        })
    }

    /// Sends one request line and returns its response line.
    pub fn call(&mut self, line: &str) -> Result<&str> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer
            .write_all(&framed)
            .map_err(|e| format!("send: {e}"))?;
        self.buf.clear();
        match self.reader.read_line(&mut self.buf) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(self.buf.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// [`Conn::call`] that also requires `"ok": true`.
    pub fn call_ok(&mut self, line: &str) -> Result<String> {
        let response = self.call(line)?.to_string();
        if response.starts_with(r#"{"ok":true"#) {
            Ok(response)
        } else {
            Err(format!("request {line} failed: {response}"))
        }
    }
}
