//! The `sdtctl` ⇄ `sdtd` wire format: one typed [`Request`], one typed
//! [`Reply`], and the only `encode` and `decode` of either.
//!
//! A connection carries newline-delimited JSON, one request per line and
//! one reply line per request, in request order. `sdtctl --daemon` encodes
//! a [`Request`] and decodes the [`Reply`]; `sdtd` decodes the request and
//! encodes the reply. The module lives here, beside [`crate::jsonv`], for
//! the reason that one does: both ends need it.
//!
//! ```text
//! request  {"id":<u64>,"method":"<method>","params":{...}}
//! reply    {"id":<u64>,"ok":<bool>,<extras>,"output":"<report>"[,"error":"<why>"]}
//! ```
//!
//! | method        | params                                                            | reply extras                              |
//! |---------------|-------------------------------------------------------------------|-------------------------------------------|
//! | `ping`        | —                                                                 | —                                         |
//! | `status`      | —                                                                 | `slices`, `host_ports_used`, `host_ports_total`, `cables_used`, `cables_total` |
//! | `metrics`     | —                                                                 | `requests`, `batches`, `batched_ops`, `largest_batch`, `snapshot_writes`, `drain_cycles` |
//! | `snapshot`    | —                                                                 | —                                         |
//! | `shutdown`    | —                                                                 | —                                         |
//! | `verify`      | `json`?, `stats`?                                                 | —                                         |
//! | `admit`       | `name`?, `config`                                                 | `slice`                                   |
//! | `destroy`     | `id` (u32)                                                        | `host_ports`, `cables`, `flow_entries`    |
//! | `migrate`     | `id` (u32), `config`                                              | `flow_mods`                               |
//! | `slices`      | `json`?, `configs`: `[{"path","text"}, ...]` (at least one)      | —                                         |
//! | `reconfigure` | `json`?, `scheduled`?, `drop`?, `reorder`?, `seed`?, `from_path`, `from_text`, `to_text` | `slice` (once migrated) |
//!
//! `config`, `text`, `from_text` and `to_text` are config-file *texts* (the
//! client reads the files); `output` is the finished report the client
//! prints verbatim, `error` is present exactly when `ok` is `false`. A `?`
//! marks an optional member: absent reads as `false` / `0` / `""`, present
//! with the wrong type is refused. Every member is read through the
//! checked accessors of [`Json`], so a refusal names the method and the
//! field (`destroy: id: out of u32 range`). Members this table does not
//! list are ignored, and of a duplicated key the first is read.
//!
//! A line that does not decode is still owed a reply, in order, under the
//! `id` it carried if that much could be read and `0` otherwise — which is
//! why [`Request::decode`] returns the id beside the verdict.

use crate::jsonv::Json;
use sdt_openflow::ControlConfig;

/// One request, as `sdtctl` sends it and `sdtd` serves it.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Slice listing and occupancy.
    Status,
    /// The engine's counters.
    Metrics,
    /// Write the snapshot file now.
    Snapshot,
    /// Answer, then stop serving.
    Shutdown,
    /// `sdtctl verify --daemon`: prove the live tables.
    Verify {
        /// Render the report as JSON.
        json: bool,
        /// Run a full pass and add its cost figures.
        stats: bool,
    },
    /// Admit one slice.
    Admit {
        /// Slice name; empty = the topology's name.
        name: String,
        /// Config-file text.
        config: String,
    },
    /// Tear one slice down.
    Destroy {
        /// Slice id.
        id: u32,
    },
    /// Reconfigure one slice to a new config, one shot.
    Migrate {
        /// Slice id.
        id: u32,
        /// Config-file text of the new topology.
        config: String,
    },
    /// `sdtctl slices --daemon`: admit every config, report occupancy.
    Slices {
        /// Render the report as JSON.
        json: bool,
        /// `(path the operator named, config-file text)`, at least one.
        configs: Vec<(String, String)>,
    },
    /// `sdtctl reconfigure --daemon`: migrate the slice named after the
    /// `from` topology (admitting it first if absent) to the `to` topology.
    Reconfigure {
        /// Render the report as JSON.
        json: bool,
        /// `Some` = as proven rounds over a control channel of this
        /// profile (drop and reorder probabilities, seed).
        scheduled: Option<ControlConfig>,
        /// Path of the `from` config, for error messages.
        from_path: String,
        /// Config-file text the slice runs now.
        from_text: String,
        /// Config-file text it migrates to.
        to_text: String,
    },
}

impl Request {
    /// The request line (no trailing newline) under request id `id`.
    pub fn encode(&self, id: u64) -> String {
        let (method, params) = match self {
            Request::Ping => ("ping", Vec::new()),
            Request::Status => ("status", Vec::new()),
            Request::Metrics => ("metrics", Vec::new()),
            Request::Snapshot => ("snapshot", Vec::new()),
            Request::Shutdown => ("shutdown", Vec::new()),
            Request::Verify { json, stats } => {
                ("verify", vec![("json", Json::Bool(*json)), ("stats", Json::Bool(*stats))])
            }
            Request::Admit { name, config } => (
                "admit",
                vec![("name", Json::str(name.as_str())), ("config", Json::str(config.as_str()))],
            ),
            Request::Destroy { id } => ("destroy", vec![("id", Json::u64((*id).into()))]),
            Request::Migrate { id, config } => (
                "migrate",
                vec![("id", Json::u64((*id).into())), ("config", Json::str(config.as_str()))],
            ),
            Request::Slices { json, configs } => {
                let configs = configs.iter().map(|(path, text)| {
                    Json::obj([("path", Json::str(path.as_str())), ("text", Json::str(text.as_str()))])
                });
                ("slices", vec![("json", Json::Bool(*json)), ("configs", Json::Arr(configs.collect()))])
            }
            Request::Reconfigure { json, scheduled, from_path, from_text, to_text } => {
                let channel = scheduled.unwrap_or_default();
                (
                    "reconfigure",
                    vec![
                        ("json", Json::Bool(*json)),
                        ("scheduled", Json::Bool(scheduled.is_some())),
                        ("drop", Json::f64(channel.drop_prob)),
                        ("reorder", Json::f64(channel.reorder_prob)),
                        ("seed", Json::u64(channel.seed)),
                        ("from_path", Json::str(from_path.as_str())),
                        ("from_text", Json::str(from_text.as_str())),
                        ("to_text", Json::str(to_text.as_str())),
                    ],
                )
            }
        };
        Json::obj([
            ("id", Json::u64(id)),
            ("method", Json::str(method)),
            ("params", Json::obj(params)),
        ])
        .emit()
    }

    /// Decode one request line (without its newline). Returns the id to
    /// answer under — `0` when the line carries no readable one — and the
    /// request, or why the line is not one.
    pub fn decode(line: &[u8]) -> (u64, Result<Request, String>) {
        let doc = match std::str::from_utf8(line) {
            Ok(text) => match Json::parse(text) {
                Ok(doc) => doc,
                Err(e) => return (0, Err(format!("bad request JSON: {e}"))),
            },
            Err(e) => return (0, Err(format!("bad request: not UTF-8 ({e})"))),
        };
        let id = doc.get("id").and_then(Json::as_u64).unwrap_or(0);
        let Some(method) = doc.get("method").and_then(Json::as_str) else {
            return (id, Err("request has no method".into()));
        };
        let empty = Json::Obj(Vec::new());
        let params = doc.get("params").unwrap_or(&empty);
        let req = match decode_params(method, params) {
            Ok(Some(req)) => Ok(req),
            Ok(None) => Err(format!("unknown method `{method}`")),
            Err(e) => Err(format!("{method}: {e}")),
        };
        (id, req)
    }
}

/// The request `method` names, read from its params; `None` for a method
/// the table does not list.
fn decode_params(method: &str, p: &Json) -> Result<Option<Request>, String> {
    // An optional member: absent is the default, present is type-checked.
    let flag = |key: &str| p.get(key).map_or(Ok(false), |v| v.want_bool(key));
    let text = |key: &str| Ok::<_, String>(p.member(key)?.want_str(key)?.to_string());
    Ok(Some(match method {
        "ping" => Request::Ping,
        "status" => Request::Status,
        "metrics" => Request::Metrics,
        "snapshot" => Request::Snapshot,
        "shutdown" => Request::Shutdown,
        "verify" => Request::Verify { json: flag("json")?, stats: flag("stats")? },
        "admit" => Request::Admit {
            name: p.get("name").map_or(Ok(""), |v| v.want_str("name"))?.to_string(),
            config: text("config")?,
        },
        "destroy" => Request::Destroy { id: p.member("id")?.want_u32("id")? },
        "migrate" => {
            Request::Migrate { id: p.member("id")?.want_u32("id")?, config: text("config")? }
        }
        "slices" => {
            let mut configs = Vec::new();
            for c in p.get("configs").map_or(Ok(&[][..]), |v| v.want_arr("configs"))? {
                configs.push((
                    c.member("path")?.want_str("path")?.to_string(),
                    c.member("text")?.want_str("text")?.to_string(),
                ));
            }
            if configs.is_empty() {
                return Err("need at least one config".into());
            }
            Request::Slices { json: flag("json")?, configs }
        }
        "reconfigure" => {
            let prob = |key: &str| {
                p.get(key).map_or(Ok(0.0), |v| probability(key, v.want_f64(key)?))
            };
            let channel = ControlConfig {
                drop_prob: prob("drop")?,
                reorder_prob: prob("reorder")?,
                seed: p.get("seed").map_or(Ok(0), |v| v.want_u64("seed"))?,
                ..ControlConfig::reliable()
            };
            Request::Reconfigure {
                json: flag("json")?,
                scheduled: flag("scheduled")?.then_some(channel),
                from_path: text("from_path")?,
                from_text: text("from_text")?,
                to_text: text("to_text")?,
            }
        }
        _ => return Ok(None),
    }))
}

/// `p` if it is a probability, in `[0, 1]`; else an error naming `what`.
/// A control channel's loss profile enters through two doors, the
/// `reconfigure` request and `sdtctl reconfigure --drop/--reorder`, and
/// both check it here: out of range, a draw would silently drop every
/// flow-mod (`2`) or none (`NaN`, `-1`), and upstream `rand`'s
/// `random_bool` panics on it.
pub fn probability(what: &str, p: f64) -> Result<f64, String> {
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(format!("{what}: {p} is not a probability in [0, 1]"))
    }
}

/// One reply. `ok` on the wire is `error.is_none()`.
#[derive(Clone, Debug, PartialEq)]
pub struct Reply {
    /// The id of the request this answers.
    pub id: u64,
    /// Method-specific members (the table in the module docs), written
    /// ahead of the report.
    pub extra: Vec<(String, Json)>,
    /// The rendered report, for the client to print verbatim.
    pub output: String,
    /// Why the request failed; a report may still come with it.
    pub error: Option<String>,
}

impl Reply {
    /// A success with nothing to report yet.
    pub fn ok(id: u64) -> Reply {
        Reply { id, extra: Vec::new(), output: String::new(), error: None }
    }

    /// A refusal.
    pub fn err(id: u64, error: impl Into<String>) -> Reply {
        Reply { error: Some(error.into()), ..Reply::ok(id) }
    }

    /// This reply with `members` appended to its extras.
    pub fn with<'a>(mut self, members: impl IntoIterator<Item = (&'a str, Json)>) -> Reply {
        self.extra.extend(members.into_iter().map(|(k, v)| (k.to_string(), v)));
        self
    }

    /// The reply line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut obj = vec![
            ("id".to_string(), Json::u64(self.id)),
            ("ok".to_string(), Json::Bool(self.error.is_none())),
        ];
        obj.extend(self.extra.iter().cloned());
        obj.push(("output".to_string(), Json::str(self.output.as_str())));
        if let Some(e) = &self.error {
            obj.push(("error".to_string(), Json::str(e.as_str())));
        }
        Json::Obj(obj).emit()
    }

    /// Decode one reply line (without its newline).
    pub fn decode(line: &str) -> Result<Reply, String> {
        let doc = Json::parse(line).map_err(|e| e.to_string())?;
        let Json::Obj(members) = &doc else {
            return Err("not an object".into());
        };
        let error = if doc.member("ok")?.want_bool("ok")? {
            None
        } else {
            Some(match doc.get("error") {
                Some(e) => e.want_str("error")?.to_string(),
                None => "daemon returned an unnamed error".to_string(),
            })
        };
        Ok(Reply {
            id: doc.member("id")?.want_u64("id")?,
            extra: members
                .iter()
                .filter(|(k, _)| !matches!(k.as_str(), "id" | "ok" | "output" | "error"))
                .cloned()
                .collect(),
            output: doc.member("output")?.want_str("output")?.to_string(),
            error,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_maps_methods_and_bad_lines() {
        let (id, req) = Request::decode(br#"{"id":7,"method":"ping","params":{}}"#);
        assert_eq!((id, req), (7, Ok(Request::Ping)));

        let (id, req) = Request::decode(br#"{"id":1,"method":"admit","params":{}}"#);
        assert_eq!((id, req), (1, Err("admit: missing member `config`".into())));

        let (id, req) = Request::decode(b"not json at all");
        assert_eq!(id, 0);
        assert!(req.is_err_and(|e| e.starts_with("bad request JSON: ")));

        let (_, req) =
            Request::decode(br#"{"id":2,"method":"migrate","params":{"id":3,"config":"x"}}"#);
        assert_eq!(req, Ok(Request::Migrate { id: 3, config: "x".into() }));
    }

    #[test]
    fn reply_encode_shape() {
        let r = Reply { output: "done".into(), ..Reply::ok(5).with([("slice", Json::u64(2))]) };
        assert_eq!(r.encode(), r#"{"id":5,"ok":true,"slice":2,"output":"done"}"#);
        assert_eq!(Reply::decode(&r.encode()), Ok(r));
        let e = Reply::err(6, "nope");
        assert_eq!(e.encode(), r#"{"id":6,"ok":false,"output":"","error":"nope"}"#);
        assert_eq!(Reply::decode(&e.encode()), Ok(e));
    }

    #[test]
    fn request_lines_are_the_bytes_sdtctl_always_sent() {
        let slices = Request::Slices { json: true, configs: vec![("a.toml".into(), "x\n".into())] };
        assert_eq!(
            slices.encode(1),
            r#"{"id":1,"method":"slices","params":{"json":true,"configs":[{"path":"a.toml","text":"x\n"}]}}"#
        );
        let lossy = ControlConfig { drop_prob: 0.2, reorder_prob: 0.1, seed: 7, ..ControlConfig::reliable() };
        let reconfigure = Request::Reconfigure {
            json: false,
            scheduled: Some(lossy),
            from_path: "a.toml".into(),
            from_text: "a".into(),
            to_text: "b".into(),
        };
        assert_eq!(
            reconfigure.encode(1),
            r#"{"id":1,"method":"reconfigure","params":{"json":false,"scheduled":true,"drop":0.2,"reorder":0.1,"seed":7,"from_path":"a.toml","from_text":"a","to_text":"b"}}"#
        );
        assert_eq!(
            Request::Verify { json: false, stats: true }.encode(1),
            r#"{"id":1,"method":"verify","params":{"json":false,"stats":true}}"#
        );
    }

    #[test]
    fn refusals_name_the_method_and_the_field() {
        let refusal = |line: &str| Request::decode(line.as_bytes()).1.unwrap_err();
        assert_eq!(
            refusal(r#"{"method":"destroy","params":{"id":4294967297}}"#),
            "destroy: id: out of u32 range"
        );
        assert_eq!(
            refusal(r#"{"method":"migrate","params":{"id":-1,"config":"x"}}"#),
            "migrate: id: not an unsigned integer"
        );
        assert_eq!(refusal(r#"{"method":"verify","params":{"stats":"yes"}}"#), "verify: stats: not a bool");
        assert_eq!(refusal(r#"{"method":"slices","params":{"configs":[]}}"#), "slices: need at least one config");
        assert_eq!(
            refusal(r#"{"method":"slices","params":{"configs":[{"path":"p"}]}}"#),
            "slices: missing member `text`"
        );
        assert_eq!(refusal(r#"{"method":"warp"}"#), "unknown method `warp`");
        assert_eq!(refusal(r#"{"id":3}"#), "request has no method");
        assert!(refusal("\u{0}").starts_with("bad request JSON: "));
        assert!(Request::decode(b"{\"method\":\"ping\xff\"}").1.unwrap_err().contains("not UTF-8"));
    }

    #[test]
    fn optional_members_default_and_unlisted_ones_are_ignored() {
        let (_, req) = Request::decode(
            br#"{"id":1,"method":"reconfigure","params":{"from_path":"a","from_text":"b","to_path":"c","to_text":"d","drop":0.5}}"#,
        );
        let want = Request::Reconfigure {
            json: false,
            scheduled: None,
            from_path: "a".into(),
            from_text: "b".into(),
            to_text: "d".into(),
        };
        assert_eq!(req, Ok(want));
        let (_, req) = Request::decode(br#"{"method":"admit","params":{"config":"c"}}"#);
        assert_eq!(req, Ok(Request::Admit { name: String::new(), config: "c".into() }));
    }
}
