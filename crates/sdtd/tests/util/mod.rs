//! Shared wire-protocol client for the daemon integration tests: a thin
//! synchronous JSON-RPC connection speaking the same newline-delimited
//! frames `sdtctl --daemon` uses.

#![allow(dead_code, clippy::unwrap_used, clippy::expect_used)]

use sdt_controller::Json;
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::Path;

pub struct Client {
    stream: UnixStream,
    reader: BufReader<UnixStream>,
    next_id: u64,
}

impl Client {
    pub fn connect(socket: &Path) -> Client {
        let stream = UnixStream::connect(socket)
            .unwrap_or_else(|e| panic!("connect {}: {e}", socket.display()));
        // A daemon that died owes the test a failure, not a hang.
        stream.set_read_timeout(Some(std::time::Duration::from_secs(60))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader, next_id: 1 }
    }

    /// One request/reply round trip. Panics on transport errors; protocol
    /// errors come back as `ok:false` replies for the caller to inspect.
    pub fn call(&mut self, method: &str, params: Vec<(String, Json)>) -> Json {
        let id = self.send(method, params).expect("daemon write failed");
        let reply = self.read_reply().expect("daemon closed mid-call");
        assert_eq!(reply.get("id").and_then(Json::as_u64), Some(id), "reply out of order");
        reply
    }

    /// Fire a request without waiting for its reply (pipelining). Returns
    /// the request id, or `Err` if the daemon is gone.
    pub fn send(
        &mut self,
        method: &str,
        params: Vec<(String, Json)>,
    ) -> Result<u64, std::io::Error> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = Json::Obj(vec![
            ("id".into(), Json::u64(id)),
            ("method".into(), Json::str(method)),
            ("params".into(), Json::Obj(params)),
        ])
        .emit();
        line.push('\n');
        self.stream.write_all(line.as_bytes())?;
        Ok(id)
    }

    /// Read the next reply frame, `None` on EOF.
    pub fn read_reply(&mut self) -> Option<Json> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                Some(Json::parse(line.trim_end_matches('\n')).expect("daemon sent bad JSON"))
            }
            _ => None,
        }
    }
}

/// `true` + no error, or the named failure.
pub fn outcome(reply: &Json) -> (bool, String) {
    (
        reply.get("ok").and_then(Json::as_bool) == Some(true),
        reply.get("error").and_then(Json::as_str).unwrap_or("").to_string(),
    )
}

/// The rendered report a reply carries.
pub fn output(reply: &Json) -> String {
    reply.get("output").and_then(Json::as_str).unwrap_or("").to_string()
}

/// A config file text over the tests' standard 4-switch cluster.
pub fn cfg(topology: &str) -> String {
    format!(
        "[topology]\n{topology}\n\n[cluster]\nswitches = 4\n\
         model = \"openflow-128x100g\"\nhosts_per_switch = 16\n\
         inter_links_per_pair = 16\n"
    )
}

/// Like [`cfg`], with an explicit `[routing]` strategy.
pub fn cfg_routed(topology: &str, strategy: &str) -> String {
    format!("{}\n[routing]\nstrategy = \"{strategy}\"\n", cfg(topology))
}

/// Spin until the daemon's socket accepts, or panic after ~5s.
pub fn wait_for_socket(path: &Path) {
    for _ in 0..500 {
        if UnixStream::connect(path).is_ok() {
            return;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    panic!("daemon socket {} never came up", path.display());
}

/// A scratch directory unique to this test process.
pub fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sdtd-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}
