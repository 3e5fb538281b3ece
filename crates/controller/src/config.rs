//! Topology configuration files (Fig. 2 of the paper).
//!
//! A small, dependency-free TOML subset: `[section]` headers, `key = value`
//! lines, `#` comments. Values: integers, booleans, quoted strings, and
//! integer arrays (`dims = [4, 4]`). Example:
//!
//! ```text
//! [topology]
//! kind = "fat-tree"      # fat-tree | dragonfly | mesh | torus | chain | ring
//! k = 4
//!
//! [cluster]
//! switches = 2
//! model = "openflow-128x100g"
//! hosts_per_switch = 16
//! inter_links_per_pair = 16
//!
//! [routing]
//! strategy = "default"   # or an explicit Table III name
//! require_deadlock_free = true
//! ```
//!
//! Fully user-defined topologies (the paper's headline flexibility claim)
//! use `kind = "custom"` with a flattened edge list and per-host
//! attachment switches:
//!
//! ```text
//! [topology]
//! kind = "custom"
//! switches = 3
//! edges = [0, 1, 1, 2]      # fabric links: (0,1), (1,2)
//! hosts = [0, 2]            # host 0 on switch 0, host 1 on switch 2
//! ```

use sdt_core::cluster::{ClusterBuilder, PhysicalCluster};
use sdt_core::methods::SwitchModel;
use sdt_topology::{chain, dragonfly, fattree, meshtorus, Topology, TopologyBuilder};
use std::collections::HashMap;

/// Parse / validation errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// Line failed to parse.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        msg: String,
    },
    /// A required key was absent.
    MissingKey(String),
    /// A key's value had the wrong type or an unknown enum name.
    BadValue(String, String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            ConfigError::MissingKey(k) => write!(f, "missing key `{k}`"),
            ConfigError::BadValue(k, v) => write!(f, "bad value for `{k}`: {v}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// One parsed value.
#[derive(Clone, PartialEq, Debug)]
enum Value {
    Int(i64),
    Bool(bool),
    Str(String),
    IntList(Vec<i64>),
}

/// Raw parsed file: `section.key -> value`.
#[derive(Clone, Debug, Default)]
struct Raw {
    map: HashMap<String, Value>,
}

impl Raw {
    fn parse(text: &str) -> Result<Raw, ConfigError> {
        let mut section = String::new();
        let mut map = HashMap::new();
        for (i, raw_line) in text.lines().enumerate() {
            let line = raw_line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                continue;
            }
            let Some((k, v)) = line.split_once('=') else {
                return Err(ConfigError::Syntax {
                    line: i + 1,
                    msg: format!("expected `key = value`, got `{line}`"),
                });
            };
            let key = if section.is_empty() {
                k.trim().to_string()
            } else {
                format!("{section}.{}", k.trim())
            };
            let value = Self::parse_value(v.trim()).ok_or_else(|| ConfigError::Syntax {
                line: i + 1,
                msg: format!("cannot parse value `{}`", v.trim()),
            })?;
            map.insert(key, value);
        }
        Ok(Raw { map })
    }

    fn parse_value(v: &str) -> Option<Value> {
        if let Some(body) = v.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            let items: Result<Vec<i64>, _> =
                body.split(',').filter(|s| !s.trim().is_empty()).map(|s| s.trim().parse()).collect();
            return items.ok().map(Value::IntList);
        }
        if let Some(s) = v.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
            return Some(Value::Str(s.to_string()));
        }
        match v {
            "true" => return Some(Value::Bool(true)),
            "false" => return Some(Value::Bool(false)),
            _ => {}
        }
        v.parse::<i64>().ok().map(Value::Int)
    }

    fn int(&self, key: &str) -> Result<i64, ConfigError> {
        match self.map.get(key) {
            Some(Value::Int(i)) => Ok(*i),
            Some(v) => Err(ConfigError::BadValue(key.into(), format!("{v:?}"))),
            None => Err(ConfigError::MissingKey(key.into())),
        }
    }

    fn int_or(&self, key: &str, default: i64) -> Result<i64, ConfigError> {
        match self.map.get(key) {
            None => Ok(default),
            _ => self.int(key),
        }
    }

    fn string(&self, key: &str) -> Result<String, ConfigError> {
        match self.map.get(key) {
            Some(Value::Str(s)) => Ok(s.clone()),
            Some(v) => Err(ConfigError::BadValue(key.into(), format!("{v:?}"))),
            None => Err(ConfigError::MissingKey(key.into())),
        }
    }

    fn string_or(&self, key: &str, default: &str) -> Result<String, ConfigError> {
        match self.map.get(key) {
            None => Ok(default.into()),
            _ => self.string(key),
        }
    }

    fn bool_or(&self, key: &str, default: bool) -> Result<bool, ConfigError> {
        match self.map.get(key) {
            Some(Value::Bool(b)) => Ok(*b),
            Some(v) => Err(ConfigError::BadValue(key.into(), format!("{v:?}"))),
            None => Ok(default),
        }
    }

    fn dims(&self, key: &str) -> Result<Vec<u32>, ConfigError> {
        match self.map.get(key) {
            Some(Value::IntList(l)) => Ok(l.iter().map(|&i| i as u32).collect()),
            Some(v) => Err(ConfigError::BadValue(key.into(), format!("{v:?}"))),
            None => Err(ConfigError::MissingKey(key.into())),
        }
    }
}

/// Resolve a `[cluster] model` name to its switch model. Shared with the
/// daemon's snapshot format, which persists the model by this name.
pub fn model_by_name(name: &str) -> Option<SwitchModel> {
    match name {
        "openflow-64x100g" => Some(SwitchModel::openflow_64x100g()),
        "openflow-128x100g" => Some(SwitchModel::openflow_128x100g()),
        "p4-64x100g" => Some(SwitchModel::p4_64x100g()),
        "p4-128x100g" => Some(SwitchModel::p4_128x100g()),
        "h3c-64x10g" => Some(SwitchModel::h3c_64x10g()),
        _ => None,
    }
}

/// The `[cluster] model` key naming `model` — the inverse of
/// [`model_by_name`]. `None` for a hand-built model the config grammar
/// cannot express (such a cluster cannot be snapshotted by name).
pub fn model_config_name(model: &SwitchModel) -> Option<&'static str> {
    ["openflow-64x100g", "openflow-128x100g", "p4-64x100g", "p4-128x100g", "h3c-64x10g"]
        .into_iter()
        .find(|n| model_by_name(n).is_some_and(|m| m.name == model.name))
}

/// A fully parsed testbed configuration.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// The user-defined logical topology.
    pub topology: Topology,
    /// Cluster switch count.
    pub switches: u32,
    /// Cluster switch model.
    pub model: SwitchModel,
    /// Host ports reserved per switch.
    pub hosts_per_switch: u16,
    /// Inter-switch cables per switch pair.
    pub inter_links_per_pair: u16,
    /// Routing strategy name (`"default"` = Table III's pick).
    pub strategy: String,
    /// Reject deployments whose CDG is cyclic.
    pub require_deadlock_free: bool,
}

impl TestbedConfig {
    /// Parse a configuration file.
    pub fn parse(text: &str) -> Result<TestbedConfig, ConfigError> {
        let raw = Raw::parse(text)?;
        let kind = raw.string("topology.kind")?;
        let topology = match kind.as_str() {
            "fat-tree" => fattree::fat_tree(raw.int("topology.k")? as u32),
            "dragonfly" => dragonfly::dragonfly(
                raw.int("topology.a")? as u32,
                raw.int("topology.g")? as u32,
                raw.int("topology.h")? as u32,
                raw.int_or("topology.p", 2)? as u32,
            ),
            "mesh" => meshtorus::mesh(&raw.dims("topology.dims")?),
            "torus" => meshtorus::torus(&raw.dims("topology.dims")?),
            "custom" => {
                let n = raw.int("topology.switches")? as u32;
                let edges = raw.dims("topology.edges")?;
                if edges.len() % 2 != 0 {
                    return Err(ConfigError::BadValue(
                        "topology.edges".into(),
                        "needs an even number of entries (flattened pairs)".into(),
                    ));
                }
                let hosts = raw.dims("topology.hosts").unwrap_or_default();
                let mut b =
                    TopologyBuilder::new("custom", n, hosts.len() as u32);
                for pair in edges.chunks_exact(2) {
                    b.fabric(
                        sdt_topology::SwitchId(pair[0]),
                        sdt_topology::SwitchId(pair[1]),
                    );
                }
                for (h, &sw) in hosts.iter().enumerate() {
                    b.attach(sdt_topology::HostId(h as u32), sdt_topology::SwitchId(sw));
                }
                b.build().map_err(|e| {
                    ConfigError::BadValue("topology".into(), e.to_string())
                })?
            }
            "chain" => chain::chain(raw.int("topology.n")? as u32),
            "ring" => chain::ring(raw.int("topology.n")? as u32),
            "star" => chain::star(raw.int("topology.leaves")? as u32),
            other => {
                return Err(ConfigError::BadValue("topology.kind".into(), other.into()))
            }
        };
        let model_name = raw.string_or("cluster.model", "openflow-128x100g")?;
        let model = model_by_name(&model_name)
            .ok_or_else(|| ConfigError::BadValue("cluster.model".into(), model_name))?;
        Ok(TestbedConfig {
            topology,
            switches: raw.int_or("cluster.switches", 1)? as u32,
            model,
            hosts_per_switch: raw.int_or("cluster.hosts_per_switch", 16)? as u16,
            inter_links_per_pair: raw.int_or("cluster.inter_links_per_pair", 0)? as u16,
            strategy: raw.string_or("routing.strategy", "default")?,
            require_deadlock_free: raw.bool_or("routing.require_deadlock_free", true)?,
        })
    }
}

/// Wire the physical cluster a `[cluster]` section describes — the one
/// `[cluster]` → [`ClusterBuilder`] translation (both controllers build
/// through it from a parsed file, the daemon's snapshot restore from the
/// persisted fields).
pub fn wire_cluster(
    model: SwitchModel,
    switches: u32,
    hosts_per_switch: u16,
    inter_links_per_pair: u16,
) -> PhysicalCluster {
    ClusterBuilder::new(model, switches)
        .hosts_per_switch(hosts_per_switch)
        .inter_links_per_pair(inter_links_per_pair)
        .build()
}

impl TestbedConfig {
    /// The cluster this file's `[cluster]` section wires.
    pub fn cluster(&self) -> PhysicalCluster {
        wire_cluster(self.model, self.switches, self.hosts_per_switch, self.inter_links_per_pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
# Fig. 2 style config
[topology]
kind = "fat-tree"
k = 4

[cluster]
switches = 2
model = "openflow-128x100g"
hosts_per_switch = 16
inter_links_per_pair = 16

[routing]
strategy = "default"
require_deadlock_free = true
"#;

    #[test]
    fn parses_sample() {
        let c = TestbedConfig::parse(SAMPLE).unwrap();
        assert_eq!(c.topology.num_switches(), 20);
        assert_eq!(c.switches, 2);
        assert_eq!(c.hosts_per_switch, 16);
        assert!(c.require_deadlock_free);
    }

    #[test]
    fn torus_dims_list() {
        let c = TestbedConfig::parse(
            "[topology]\nkind = \"torus\"\ndims = [4, 4, 4]\n[cluster]\nswitches = 3\n",
        )
        .unwrap();
        assert_eq!(c.topology.num_switches(), 64);
        assert_eq!(c.switches, 3);
    }

    #[test]
    fn defaults_fill_in() {
        let c = TestbedConfig::parse("[topology]\nkind = \"chain\"\nn = 8\n").unwrap();
        assert_eq!(c.switches, 1);
        assert_eq!(c.strategy, "default");
    }

    #[test]
    fn missing_key_reported() {
        let e = TestbedConfig::parse("[topology]\nkind = \"fat-tree\"\n").unwrap_err();
        assert_eq!(e, ConfigError::MissingKey("topology.k".into()));
    }

    #[test]
    fn bad_kind_reported() {
        let e = TestbedConfig::parse("[topology]\nkind = \"moebius\"\nk = 2\n").unwrap_err();
        assert!(matches!(e, ConfigError::BadValue(..)));
    }

    #[test]
    fn syntax_error_has_line() {
        let e = TestbedConfig::parse("[topology]\nkind \"fat-tree\"\n").unwrap_err();
        assert!(matches!(e, ConfigError::Syntax { line: 2, .. }));
    }

    #[test]
    fn custom_topology_from_edge_list() {
        let c = TestbedConfig::parse(
            "[topology]\nkind = \"custom\"\nswitches = 3\nedges = [0, 1, 1, 2]\nhosts = [0, 2]\n",
        )
        .unwrap();
        assert_eq!(c.topology.num_switches(), 3);
        assert_eq!(c.topology.num_hosts(), 2);
        assert_eq!(c.topology.num_fabric_links(), 2);
    }

    #[test]
    fn custom_topology_rejects_odd_edge_list() {
        let e = TestbedConfig::parse(
            "[topology]\nkind = \"custom\"\nswitches = 2\nedges = [0, 1, 1]\n",
        )
        .unwrap_err();
        assert!(matches!(e, ConfigError::BadValue(..)));
    }

    #[test]
    fn custom_topology_rejects_bad_edges() {
        let e = TestbedConfig::parse(
            "[topology]\nkind = \"custom\"\nswitches = 2\nedges = [0, 7]\n",
        )
        .unwrap_err();
        assert!(matches!(e, ConfigError::BadValue(..)));
    }

    #[test]
    fn model_names_round_trip() {
        for name in
            ["openflow-64x100g", "openflow-128x100g", "p4-64x100g", "p4-128x100g", "h3c-64x10g"]
        {
            let m = model_by_name(name).unwrap();
            assert_eq!(model_config_name(&m), Some(name));
        }
        assert_eq!(model_by_name("abacus-9000"), None);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let c = TestbedConfig::parse(
            "# hello\n\n[topology]\nkind = \"ring\" # inline\nn = 5\n",
        )
        .unwrap();
        assert_eq!(c.topology.num_switches(), 5);
    }
}
