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
    /// A key's value had the wrong type, an unknown enum name, or a number
    /// outside its field's width or its builder's domain.
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

    /// The one integer reader: `v` as the field's type, or `BadValue(key,
    /// "out of u32 range")` — never a wrapping `as`.
    fn narrow<T: TryFrom<S>, S>(key: &str, v: S) -> Result<T, ConfigError> {
        T::try_from(v)
            .map_err(|_| bad(key, format!("out of {} range", std::any::type_name::<T>())))
    }

    fn int<T: TryFrom<i64>>(&self, key: &str) -> Result<T, ConfigError> {
        match self.map.get(key) {
            Some(Value::Int(i)) => Self::narrow(key, *i),
            Some(v) => Err(bad(key, format!("{v:?}"))),
            None => Err(ConfigError::MissingKey(key.into())),
        }
    }

    fn int_or<T: TryFrom<i64>>(&self, key: &str, default: T) -> Result<T, ConfigError> {
        match self.map.get(key) {
            None => Ok(default),
            _ => self.int(key),
        }
    }

    fn string(&self, key: &str) -> Result<String, ConfigError> {
        match self.map.get(key) {
            Some(Value::Str(s)) => Ok(s.clone()),
            Some(v) => Err(bad(key, format!("{v:?}"))),
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
            Some(v) => Err(bad(key, format!("{v:?}"))),
            None => Ok(default),
        }
    }

    fn ints(&self, key: &str) -> Result<Vec<u32>, ConfigError> {
        match self.map.get(key) {
            Some(Value::IntList(l)) => l.iter().map(|&i| Self::narrow(key, i)).collect(),
            Some(v) => Err(bad(key, format!("{v:?}"))),
            None => Err(ConfigError::MissingKey(key.into())),
        }
    }
}

fn bad(key: &str, why: impl Into<String>) -> ConfigError {
    ConfigError::BadValue(key.into(), why.into())
}

/// A precondition the builders assert, checked here so that a file cannot
/// trip it: `BadValue` naming the key when it does not hold.
fn ensure(holds: bool, key: &str, why: &str) -> Result<(), ConfigError> {
    holds.then_some(()).ok_or_else(|| bad(key, why))
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
    /// Parse a configuration file. Every number is width-checked, every
    /// parameter is held to its builder's domain, and the topology is built
    /// only once its switch and host counts — worked out from the parameters
    /// — are known to fit the ports of the cluster the same file declares,
    /// so no file can panic a builder or make it build without bound.
    pub fn parse(text: &str) -> Result<TestbedConfig, ConfigError> {
        Self::parse_within(text, u128::MAX)
    }

    /// [`TestbedConfig::parse`] on behalf of a process that already runs a
    /// cluster of `ports` physical ports (`sdtd`): the topology is built
    /// only if it also fits those, so a request cannot make the daemon
    /// build more than its own cluster could carry by declaring a larger
    /// `[cluster]`.
    pub fn parse_within(text: &str, ports: u128) -> Result<TestbedConfig, ConfigError> {
        let raw = Raw::parse(text)?;
        let kind = raw.string("topology.kind")?;

        let model_name = raw.string_or("cluster.model", "openflow-128x100g")?;
        let model =
            model_by_name(&model_name).ok_or_else(|| bad("cluster.model", model_name))?;
        let switches: u32 = raw.int_or("cluster.switches", 1)?;
        let hosts_per_switch: u16 = raw.int_or("cluster.hosts_per_switch", 16)?;
        let inter_links_per_pair: u16 = raw.int_or("cluster.inter_links_per_pair", 0)?;
        check_cluster(&model, switches, hosts_per_switch, inter_links_per_pair)?;

        // A logical switch and a host each take at least one physical port.
        let ports = (u128::from(switches) * u128::from(model.ports)).min(ports);
        let fits = |s: u128, h: u128| {
            if s.max(h) <= ports {
                return Ok(());
            }
            let why = format!("{s} switches and {h} hosts exceed the cluster's {ports} ports");
            Err(bad("topology", why))
        };
        let count = |key: &str, least: u32| match raw.int(key)? {
            n if n >= least => Ok(n),
            _ => Err(bad(key, format!("must be >= {least}"))),
        };
        let topology = match kind.as_str() {
            "fat-tree" => {
                let k: u32 = raw.int("topology.k")?;
                ensure(k >= 2 && k % 2 == 0, "topology.k", "must be even and >= 2")?;
                let k_ = u128::from(k);
                fits(5 * k_ * k_ / 4, k_ * k_ * k_ / 4)?;
                fattree::fat_tree(k)
            }
            "dragonfly" => {
                let (a, g, h) =
                    (count("topology.a", 1)?, count("topology.g", 2)?, count("topology.h", 1)?);
                let p: u32 = raw.int_or("topology.p", 2)?;
                // A router's h global links reach every other group (the
                // builder's assert) and at most every router outside its own.
                let (a_, g_, h_) = (u128::from(a), u128::from(g), u128::from(h));
                ensure(
                    a_ * h_ >= g_ - 1 && h_ <= a_ * (g_ - 1),
                    "topology.h",
                    "needs g-1 <= a*h and h <= a*(g-1)",
                )?;
                // The builder numbers a group's a*h global-link slots in `u32`.
                let _slots: u32 = Raw::narrow("topology.h", a_ * h_)?;
                fits(a_ * g_, a_ * g_ * u128::from(p))?;
                dragonfly::dragonfly(a, g, h, p)
            }
            "mesh" | "torus" => {
                let dims = raw.ints("topology.dims")?;
                ensure(
                    !dims.is_empty() && dims.iter().all(|&d| d >= 2),
                    "topology.dims",
                    "needs at least one dim, each >= 2",
                )?;
                let points = dims.iter().fold(1u128, |n, &d| n.saturating_mul(d.into()));
                fits(points, points)?;
                if kind == "mesh" {
                    meshtorus::mesh(&dims)
                } else {
                    meshtorus::torus(&dims)
                }
            }
            "custom" => {
                let n: u32 = raw.int("topology.switches")?;
                let edges = raw.ints("topology.edges")?;
                ensure(
                    edges.len() % 2 == 0,
                    "topology.edges",
                    "needs an even number of entries (flattened pairs)",
                )?;
                let within = |key: &str, list: &[u32]| match list.iter().find(|&&s| s >= n) {
                    Some(s) => Err(bad(key, format!("switch s{s} out of range"))),
                    None => Ok(()),
                };
                within("topology.edges", &edges)?;
                let hosts = match raw.ints("topology.hosts") {
                    Err(ConfigError::MissingKey(_)) => Vec::new(),
                    listed => listed?,
                };
                within("topology.hosts", &hosts)?;
                let num_hosts: u32 = Raw::narrow("topology.hosts", hosts.len())?;
                fits(n.into(), num_hosts.into())?;
                let mut b = TopologyBuilder::new("custom", n, num_hosts);
                for pair in edges.chunks_exact(2) {
                    b.fabric(sdt_topology::SwitchId(pair[0]), sdt_topology::SwitchId(pair[1]));
                }
                for (h, &sw) in (0..num_hosts).zip(&hosts) {
                    b.attach(sdt_topology::HostId(h), sdt_topology::SwitchId(sw));
                }
                b.build().map_err(|e| bad("topology", e.to_string()))?
            }
            "chain" => {
                let n = count("topology.n", 1)?;
                fits(n.into(), n.into())?;
                chain::chain(n)
            }
            "ring" => {
                let n = count("topology.n", 3)?;
                fits(n.into(), n.into())?;
                chain::ring(n)
            }
            "star" => {
                let leaves = count("topology.leaves", 1)?;
                fits(u128::from(leaves) + 1, leaves.into())?;
                chain::star(leaves)
            }
            other => return Err(bad("topology.kind", other)),
        };
        Ok(TestbedConfig {
            topology,
            switches,
            model,
            hosts_per_switch,
            inter_links_per_pair,
            strategy: raw.string_or("routing.strategy", "default")?,
            require_deadlock_free: raw.bool_or("routing.require_deadlock_free", true)?,
        })
    }
}

/// The preconditions [`wire_cluster`] asserts, as a `BadValue` naming the
/// key that breaks one: at least one switch, peers numbered in a `u16`,
/// reserved host and inter-switch ports within the model's.
pub fn check_cluster(
    model: &SwitchModel,
    switches: u32,
    hosts_per_switch: u16,
    inter_links_per_pair: u16,
) -> Result<(), ConfigError> {
    ensure(switches >= 1, "cluster.switches", "must be >= 1")?;
    let peers: u16 = Raw::narrow("cluster.switches", switches - 1)?;
    let reserved =
        u32::from(hosts_per_switch) + u32::from(inter_links_per_pair) * u32::from(peers);
    if reserved > model.ports {
        let key = if u32::from(hosts_per_switch) > model.ports {
            "cluster.hosts_per_switch"
        } else {
            "cluster.inter_links_per_pair"
        };
        let why = format!("reserved ports ({reserved}) exceed switch ports ({})", model.ports);
        return Err(bad(key, why));
    }
    Ok(())
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
    use proptest::prelude::*;

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
    fn out_of_range_numbers_refused_by_key() {
        // Read through `as`, these wrapped to 16 and 4 and parsed.
        let e = TestbedConfig::parse(&SAMPLE.replace("_switch = 16", "_switch = 65552"));
        assert_eq!(e.unwrap_err(), bad("cluster.hosts_per_switch", "out of u16 range"));
        let e = TestbedConfig::parse(&SAMPLE.replace("k = 4", "k = 4294967300"));
        assert_eq!(e.unwrap_err(), bad("topology.k", "out of u32 range"));
    }

    /// Whatever parses was built within the cluster the same file declares,
    /// and that cluster is one its builder accepts.
    fn assert_bounded(text: &str) {
        if let Ok(c) = TestbedConfig::parse(text) {
            let ports = u64::from(c.switches) * u64::from(c.model.ports);
            let size = c.topology.num_switches().max(c.topology.num_hosts());
            assert!(u64::from(size) <= ports, "{size} > {ports}: {text}");
            assert_eq!(c.cluster().num_switches(), c.switches);
        }
    }

    /// The sample with every topology kind in turn.
    fn samples() -> Vec<String> {
        [
            "kind = \"fat-tree\"\nk = 4",
            "kind = \"dragonfly\"\na = 4\ng = 9\nh = 2\np = 1",
            "kind = \"mesh\"\ndims = [4, 4]",
            "kind = \"torus\"\ndims = [2, 3, 4]",
            "kind = \"custom\"\nswitches = 3\nedges = [0, 1, 1, 2]\nhosts = [0, 2]",
            "kind = \"chain\"\nn = 8",
            "kind = \"ring\"\nn = 8",
            "kind = \"star\"\nleaves = 4",
        ]
        .iter()
        .map(|topology| SAMPLE.replace("kind = \"fat-tree\"\nk = 4", topology))
        .collect()
    }

    /// `text` with the `i`-th number after `[topology]` replaced by `v`,
    /// while it has that many.
    fn with_number(text: &str, i: usize, v: i64) -> Option<String> {
        let is_digit = |c: char| c.is_ascii_digit();
        let mut rest = text.find("[topology]")?;
        for _ in 0..i {
            rest += text[rest..].find(is_digit)?;
            rest += text[rest..].find(|c| !is_digit(c))?;
        }
        let start = rest + text[rest..].find(is_digit)?;
        let end = start + text[start..].find(|c| !is_digit(c))?;
        Some(format!("{}{v}{}", &text[..start], &text[end..]))
    }

    /// The values the builders' asserts and the field widths turn on.
    const EDGES: [i64; 12] =
        [-4, 0, 1, 2, 3, 200, 65_535, 65_552, 4_000_000_000, u32::MAX as i64, 1 << 32, i64::MAX];

    #[test]
    fn single_number_mutations_never_panic_and_stay_bounded() {
        for text in samples() {
            assert!(TestbedConfig::parse(&text).is_ok(), "{text}");
            for v in EDGES {
                let mutants = (0..).map_while(|i| with_number(&text, i, v));
                assert!(mutants.inspect(|m| assert_bounded(m)).count() >= 4, "{text}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn arbitrary_bytes_and_numbers_never_panic_and_stay_bounded(
            raw in collection::vec(any::<u8>(), 0..64),
            tokens in collection::vec(any::<u8>(), 0..32),
            v in any::<i64>(),
        ) {
            assert_bounded(&String::from_utf8_lossy(&raw));
            // The same, from an alphabet that often lands on a config.
            const ALPHABET: &[&str] = &[
                "[topology]\n", "[cluster]\n", "kind = ", "\"fat-tree\"", "\"torus\"", "\"custom\"",
                "k = ", "dims = ", "edges = ", "hosts = ", "switches = ", "[", "]", ", ", "0", "3",
                "4", "-", "65552", "\n", "#", "=", "\"",
            ];
            let text: String =
                tokens.iter().map(|&b| ALPHABET[usize::from(b) % ALPHABET.len()]).collect();
            assert_bounded(&text);
            for text in samples() {
                (0..).map_while(|i| with_number(&text, i, v)).for_each(|m| assert_bounded(&m));
            }
        }
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
