//! `lint.toml` — rule severities, rule parameters, and the allowlist
//! baseline, parsed with a hand-rolled TOML-subset reader (the
//! workspace has no TOML dependency and the offline `crates/compat`
//! policy rules out adding one).
//!
//! The supported subset: `[table]` headers, `[[array_of_tables]]`
//! headers, `key = "string"`, `key = ["a", "b"]`, `key = true|false`,
//! comments, and blank lines. That covers the whole configuration
//! surface; anything else is a hard error so a typo cannot silently
//! disable a rule.
//!
//! Policy note: `[[allow]]` entries are the *baseline* — each MUST
//! carry a non-empty `justification` string, and the self-lint test
//! asserts there are none for the determinism rules D1–D3 in
//! deterministic crates. The per-rule parameters (e.g. the D2
//! observability-module allowlist) are rule *definition*, not
//! baseline: they say where wall-clock reads are architecturally
//! legal, not which known violations are tolerated.

use crate::diag::Severity;

/// One `[[allow]]` baseline entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule id the entry suppresses (`D1`…`F2`).
    pub rule: String,
    /// Repo-relative path prefix the entry covers (a file, or a
    /// directory ending in `/`).
    pub path: String,
    /// Why the suppression is sound. Mandatory and non-empty.
    pub justification: String,
}

/// Parsed lint configuration.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crates under the bitwise-determinism contract (D1, F1, and the
    /// `#![forbid(unsafe_code)]` audit of S1 apply here).
    pub deterministic_crates: Vec<String>,
    /// Crates where S2 (`unwrap`/`expect`) applies.
    pub unwrap_crates: Vec<String>,
    /// Per-rule severities, indexed by rule id.
    pub severity: Vec<(String, Severity)>,
    /// Severity for the `expect()` half of S2 (the `unwrap()` half
    /// uses the S2 severity). Documented-invariant `expect`s are a
    /// distinct, lower-risk class than `unwrap`, so they get their
    /// own dial.
    pub s2_expect: Severity,
    /// Path prefixes where D2 wall-clock/env reads are legal. Kept
    /// for back-compat with older `lint.toml`s; the canonical scope
    /// is `d2_allow_modules`.
    pub d2_allow_paths: Vec<String>,
    /// Module scopes where D2 wall-clock/env reads are legal (the
    /// observability modules, benches, and the CLI). A scope matches
    /// a module when equal or a `::`-prefix of it.
    pub d2_allow_modules: Vec<String>,
    /// Declared crate-layering DAG (L1): crate label → crate labels
    /// it may import. Any cross-crate `use` not covered by an edge is
    /// an error; the table itself is validated acyclic at parse time.
    pub layering: Vec<(String, Vec<String>)>,
    /// Module scopes under the I/O-purity contract (P1): `std::net`,
    /// `std::fs`, `std::process`, `std::io::std{in,out,err}`, and the
    /// print macros are banned there.
    pub p1_pure_modules: Vec<String>,
    /// Module scopes exempt from P1 inside the pure set (the
    /// observability modules).
    pub p1_allow_modules: Vec<String>,
    /// Foreign RNG type names whose construction R1 flags outside the
    /// seed-lineage API.
    pub r1_rng_types: Vec<String>,
    /// Module scopes where `SpRng::seed_from_u64` / `from_state` root
    /// construction is legal (R1): trial/experiment drivers that own
    /// a run seed, plus the `sp_stats` API itself.
    pub r1_seed_roots: Vec<String>,
    /// Module scopes under the inter-shard channel contract (R1):
    /// channel types carrying an RNG value are flagged there.
    pub r1_shard_modules: Vec<String>,
    /// Path prefixes under the shared-nothing contract (F2): lock and
    /// atomic shared-state primitives are banned there — simulator hot
    /// paths communicate only through bounded mpsc channels drained at
    /// tick barriers (DESIGN.md §15).
    pub f2_hot_paths: Vec<String>,
    /// Path prefixes under the supervised-channel contract (F3): bare
    /// `.unwrap()`/`.expect()` on inter-shard channel `send`/`recv`
    /// calls is banned there — a dead peer shard must surface as a
    /// supervised `ShardFailure`, not a cascading panic (DESIGN.md
    /// §17).
    pub f3_hot_paths: Vec<String>,
    /// Baseline suppressions.
    pub allow: Vec<AllowEntry>,
}

/// Every rule id, in report order.
pub const RULE_IDS: [&str; 11] = [
    "D1", "D2", "D3", "S1", "S2", "F1", "F2", "F3", "L1", "P1", "R1",
];

/// Whether module-scope `scope` covers module path `module` (equal,
/// or a `::`-prefix: `sp_sim` covers `sp_sim::engine`).
pub fn module_in_scope(scope: &str, module: &str) -> bool {
    module == scope
        || (module.len() > scope.len()
            && module.starts_with(scope)
            && module[scope.len()..].starts_with("::"))
}

impl Default for LintConfig {
    /// The built-in policy, identical to the checked-in `lint.toml`
    /// minus the baseline. Fixture tests run against this so they
    /// exercise the rules, not the workspace baseline.
    fn default() -> Self {
        LintConfig {
            deterministic_crates: ["sim", "model", "graph", "stats", "design", "core"]
                .map(String::from)
                .to_vec(),
            unwrap_crates: ["sim", "model", "graph", "stats", "design", "core", "cli"]
                .map(String::from)
                .to_vec(),
            severity: RULE_IDS
                .iter()
                .map(|r| (r.to_string(), Severity::Deny))
                .collect(),
            s2_expect: Severity::Warn,
            d2_allow_paths: Vec::new(),
            d2_allow_modules: ["sp_sim::metrics", "sp_bench", "sp_cli", "sp_lint"]
                .map(String::from)
                .to_vec(),
            layering: default_layering(),
            p1_pure_modules: [
                "sp_core",
                "sp_design",
                "sp_graph",
                "sp_model",
                "sp_sim",
                "sp_stats",
            ]
            .map(String::from)
            .to_vec(),
            p1_allow_modules: vec!["sp_sim::metrics".into()],
            r1_rng_types: [
                "SmallRng",
                "StdRng",
                "ThreadRng",
                "ChaCha8Rng",
                "ChaCha12Rng",
                "ChaCha20Rng",
                "Pcg32",
                "Pcg64",
                "Xoshiro128PlusPlus",
                "Xoshiro256PlusPlus",
                "Xoshiro256StarStar",
            ]
            .map(String::from)
            .to_vec(),
            r1_seed_roots: [
                "sp_stats",
                "sp_bench",
                "sp_model::trials",
                "sp_sim::engine",
                "sp_sim::campaign",
                "sp_sim::scenario",
                "sp_sim::phases",
                "sp_sim::faults",
                "sp_design::epl",
                "sp_core::experiments::redesign",
            ]
            .map(String::from)
            .to_vec(),
            r1_shard_modules: vec!["sp_sim::shard".into()],
            f2_hot_paths: vec!["crates/sim/src/".into()],
            f3_hot_paths: vec!["crates/sim/src/".into()],
            allow: Vec::new(),
        }
    }
}

/// The declared crate-layering DAG, mirroring the workspace
/// `Cargo.toml` dependency edges (see DESIGN.md §13 and README for
/// the picture). Keys are crate directory labels; `workspace-tests`
/// and `examples` are pseudo-crates for workspace-level test and
/// example files.
fn default_layering() -> Vec<(String, Vec<String>)> {
    let table: [(&str, &[&str]); 11] = [
        ("cli", &["core", "lint"]),
        (
            "bench",
            &["core", "sim", "design", "model", "graph", "stats"],
        ),
        ("core", &["sim", "design", "model", "graph", "stats"]),
        ("sim", &["design", "model", "graph", "stats"]),
        ("design", &["model", "graph", "stats"]),
        ("model", &["graph", "stats"]),
        ("graph", &["stats"]),
        ("stats", &[]),
        ("lint", &[]),
        (
            "workspace-tests",
            &["core", "sim", "design", "model", "graph", "stats"],
        ),
        (
            "examples",
            &["core", "sim", "design", "model", "graph", "stats"],
        ),
    ];
    table
        .iter()
        .map(|(k, deps)| (k.to_string(), deps.iter().map(|d| d.to_string()).collect()))
        .collect()
}

impl LintConfig {
    /// Effective severity of a rule.
    pub fn severity_of(&self, rule: &str) -> Severity {
        self.severity
            .iter()
            .find(|(r, _)| r == rule)
            .map(|&(_, s)| s)
            .unwrap_or(Severity::Deny)
    }

    /// Whether `crate_name` is under the determinism contract.
    pub fn is_deterministic(&self, crate_name: &str) -> bool {
        self.deterministic_crates.iter().any(|c| c == crate_name)
    }

    /// Whether S2 applies to `crate_name`.
    pub fn checks_unwrap(&self, crate_name: &str) -> bool {
        self.unwrap_crates.iter().any(|c| c == crate_name)
    }

    /// Whether `path`/`module` is an allowlisted D2 observability
    /// location (module scope, or legacy path prefix).
    pub fn d2_allowed(&self, path: &str, module: &str) -> bool {
        self.d2_allow_paths
            .iter()
            .any(|p| path.starts_with(p.as_str()))
            || self
                .d2_allow_modules
                .iter()
                .any(|m| module_in_scope(m, module))
    }

    /// Whether `module` is under the P1 I/O-purity contract.
    pub fn p1_pure(&self, module: &str) -> bool {
        self.p1_pure_modules
            .iter()
            .any(|m| module_in_scope(m, module))
            && !self
                .p1_allow_modules
                .iter()
                .any(|m| module_in_scope(m, module))
    }

    /// Whether `module` may construct RNG seed roots (R1).
    pub fn r1_seed_root(&self, module: &str) -> bool {
        self.r1_seed_roots
            .iter()
            .any(|m| module_in_scope(m, module))
    }

    /// Whether `module` is under the R1 inter-shard channel contract.
    pub fn r1_shard(&self, module: &str) -> bool {
        self.r1_shard_modules
            .iter()
            .any(|m| module_in_scope(m, module))
    }

    /// The declared layering dependencies of a crate label, if the
    /// crate is in the table.
    pub fn layering_deps(&self, crate_label: &str) -> Option<&[String]> {
        self.layering
            .iter()
            .find(|(k, _)| k == crate_label)
            .map(|(_, deps)| deps.as_slice())
    }

    /// Whether `path` is under the F2 shared-nothing contract.
    pub fn f2_hot(&self, path: &str) -> bool {
        self.f2_hot_paths
            .iter()
            .any(|p| path.starts_with(p.as_str()))
    }

    /// Whether `path` is under the F3 supervised-channel contract.
    pub fn f3_hot(&self, path: &str) -> bool {
        self.f3_hot_paths
            .iter()
            .any(|p| path.starts_with(p.as_str()))
    }

    /// The `[[allow]]` entry suppressing `rule` at `path`, if any.
    pub fn allow_entry(&self, rule: &str, path: &str) -> Option<&AllowEntry> {
        self.allow
            .iter()
            .find(|a| a.rule == rule && path.starts_with(a.path.as_str()))
    }

    /// Baseline entries for a rule (used by the self-lint test to
    /// assert the D1–D3 baseline is empty).
    pub fn baseline_for(&self, rule: &str) -> Vec<&AllowEntry> {
        self.allow.iter().filter(|a| a.rule == rule).collect()
    }

    /// Parses `lint.toml` text. Errors name the line.
    pub fn parse(text: &str) -> Result<LintConfig, String> {
        let mut cfg = LintConfig {
            allow: Vec::new(),
            ..LintConfig::default()
        };
        // Reset list-valued policy fields so the file is authoritative
        // when it sets them; absent keys keep the defaults above.
        let mut section = String::new();
        let mut current_allow: Option<AllowEntry> = None;
        // The [layering] table is cleared when the file provides its
        // first edge, so a checked-in table fully replaces the
        // default rather than merging with it.
        let mut layering_cleared = false;

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                if name.trim() != "allow" {
                    return Err(format!(
                        "lint.toml:{lineno}: unknown array of tables [[{}]]",
                        name.trim()
                    ));
                }
                if let Some(entry) = current_allow.take() {
                    cfg.push_allow(entry, lineno)?;
                }
                current_allow = Some(AllowEntry {
                    rule: String::new(),
                    path: String::new(),
                    justification: String::new(),
                });
                section = "allow".into();
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                if let Some(entry) = current_allow.take() {
                    cfg.push_allow(entry, lineno)?;
                }
                section = name.trim().to_string();
                match section.as_str() {
                    "lint" | "severity" | "layering" | "rules.D2" | "rules.S2" | "rules.F2"
                    | "rules.F3" | "rules.P1" | "rules.R1" => {}
                    other => {
                        return Err(format!("lint.toml:{lineno}: unknown table [{other}]"));
                    }
                }
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("lint.toml:{lineno}: expected `key = value`"))?;
            let key = key.trim();
            let value = value.trim();
            match (section.as_str(), key) {
                ("lint", "deterministic_crates") => {
                    cfg.deterministic_crates = parse_string_array(value, lineno)?;
                }
                ("lint", "unwrap_crates") => {
                    cfg.unwrap_crates = parse_string_array(value, lineno)?;
                }
                ("severity", rule) => {
                    if !RULE_IDS.contains(&rule) {
                        return Err(format!("lint.toml:{lineno}: unknown rule id {rule:?}"));
                    }
                    let sev = Severity::parse(&parse_string(value, lineno)?)
                        .map_err(|e| format!("lint.toml:{lineno}: {e}"))?;
                    if let Some(slot) = cfg.severity.iter_mut().find(|(r, _)| r == rule) {
                        slot.1 = sev;
                    }
                }
                ("layering", crate_label) => {
                    if !layering_cleared {
                        cfg.layering.clear();
                        layering_cleared = true;
                    }
                    let deps = parse_string_array(value, lineno)?;
                    if cfg.layering.iter().any(|(k, _)| k == crate_label) {
                        return Err(format!(
                            "lint.toml:{lineno}: duplicate crate {crate_label:?} in [layering]"
                        ));
                    }
                    cfg.layering.push((crate_label.to_string(), deps));
                }
                ("rules.D2", "allow_paths") => {
                    cfg.d2_allow_paths = parse_string_array(value, lineno)?;
                }
                ("rules.D2", "allow_modules") => {
                    cfg.d2_allow_modules = parse_string_array(value, lineno)?;
                }
                ("rules.F2", "hot_paths") => {
                    cfg.f2_hot_paths = parse_string_array(value, lineno)?;
                }
                ("rules.F3", "hot_paths") => {
                    cfg.f3_hot_paths = parse_string_array(value, lineno)?;
                }
                ("rules.P1", "pure_modules") => {
                    cfg.p1_pure_modules = parse_string_array(value, lineno)?;
                }
                ("rules.P1", "allow_modules") => {
                    cfg.p1_allow_modules = parse_string_array(value, lineno)?;
                }
                ("rules.R1", "rng_types") => {
                    cfg.r1_rng_types = parse_string_array(value, lineno)?;
                }
                ("rules.R1", "seed_roots") => {
                    cfg.r1_seed_roots = parse_string_array(value, lineno)?;
                }
                ("rules.R1", "shard_modules") => {
                    cfg.r1_shard_modules = parse_string_array(value, lineno)?;
                }
                ("rules.S2", "expect") => {
                    cfg.s2_expect = Severity::parse(&parse_string(value, lineno)?)
                        .map_err(|e| format!("lint.toml:{lineno}: {e}"))?;
                }
                ("allow", "rule") => {
                    let entry = current_allow
                        .as_mut()
                        .ok_or_else(|| format!("lint.toml:{lineno}: key outside [[allow]]"))?;
                    entry.rule = parse_string(value, lineno)?;
                    if !RULE_IDS.contains(&entry.rule.as_str()) {
                        return Err(format!(
                            "lint.toml:{lineno}: unknown rule id {:?} in [[allow]]",
                            entry.rule
                        ));
                    }
                }
                ("allow", "path") => {
                    current_allow
                        .as_mut()
                        .ok_or_else(|| format!("lint.toml:{lineno}: key outside [[allow]]"))?
                        .path = parse_string(value, lineno)?;
                }
                ("allow", "justification") => {
                    current_allow
                        .as_mut()
                        .ok_or_else(|| format!("lint.toml:{lineno}: key outside [[allow]]"))?
                        .justification = parse_string(value, lineno)?;
                }
                (sec, key) => {
                    return Err(format!(
                        "lint.toml:{lineno}: unknown key {key:?} in section [{sec}]"
                    ));
                }
            }
        }
        if let Some(entry) = current_allow.take() {
            let last = text.lines().count();
            cfg.push_allow(entry, last)?;
        }
        cfg.validate_layering()?;
        Ok(cfg)
    }

    /// Post-parse validation of the layering table: every referenced
    /// dependency must itself be declared, and the declared edges
    /// must form a DAG (a cycle is reported with its full path).
    fn validate_layering(&self) -> Result<(), String> {
        for (k, deps) in &self.layering {
            for d in deps {
                if !self.layering.iter().any(|(other, _)| other == d) {
                    return Err(format!(
                        "lint.toml: [layering] crate {k:?} depends on undeclared crate {d:?} \
                         (every crate in the DAG must have its own entry)"
                    ));
                }
            }
        }
        // Iterative DFS cycle detection with path reconstruction.
        // 0 = unvisited, 1 = on stack, 2 = done.
        let mut state: Vec<u8> = vec![0; self.layering.len()];
        let index_of = |name: &str| self.layering.iter().position(|(k, _)| k == name);
        for start in 0..self.layering.len() {
            if state[start] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            state[start] = 1;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                let deps = &self.layering[node].1;
                if *next >= deps.len() {
                    state[node] = 2;
                    stack.pop();
                    continue;
                }
                let dep = &deps[*next];
                *next += 1;
                let di = index_of(dep).expect("validated above");
                match state[di] {
                    0 => {
                        state[di] = 1;
                        stack.push((di, 0));
                    }
                    1 => {
                        // Cycle: slice the stack from the first
                        // occurrence of `di` and close the loop.
                        let pos = stack
                            .iter()
                            .position(|&(n, _)| n == di)
                            .expect("on-stack node is in the stack");
                        let mut path: Vec<&str> = stack[pos..]
                            .iter()
                            .map(|&(n, _)| self.layering[n].0.as_str())
                            .collect();
                        path.push(self.layering[di].0.as_str());
                        return Err(format!(
                            "lint.toml: [layering] cycle: {}",
                            path.join(" -> ")
                        ));
                    }
                    _ => {}
                }
            }
        }
        Ok(())
    }

    fn push_allow(&mut self, entry: AllowEntry, lineno: usize) -> Result<(), String> {
        if entry.rule.is_empty() || entry.path.is_empty() {
            return Err(format!(
                "lint.toml:{lineno}: [[allow]] entry needs both `rule` and `path`"
            ));
        }
        if entry.justification.trim().is_empty() {
            return Err(format!(
                "lint.toml:{lineno}: [[allow]] for {} at {} is missing a justification \
                 (every baseline suppression must say why it is sound)",
                entry.rule, entry.path
            ));
        }
        self.allow.push(entry);
        Ok(())
    }
}

/// Strips a `#` comment, respecting quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut prev_backslash = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_backslash => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        prev_backslash = c == '\\' && !prev_backslash;
    }
    line
}

fn parse_string(value: &str, lineno: usize) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .ok_or_else(|| format!("lint.toml:{lineno}: expected a quoted string, got {value}"))?;
    Ok(inner.replace("\\\"", "\"").replace("\\\\", "\\"))
}

fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("lint.toml:{lineno}: expected an array, got {value}"))?;
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| parse_string(s, lineno))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_shape() {
        let cfg = LintConfig::parse(
            r#"
# comment
[lint]
deterministic_crates = ["sim", "model"] # trailing comment
unwrap_crates = ["sim"]

[severity]
D1 = "deny"
S2 = "warn"

[rules.D2]
allow_paths = ["crates/bench/"]

[rules.S2]
expect = "allow"

[rules.F2]
hot_paths = ["crates/sim/src/shard.rs"]

[rules.F3]
hot_paths = ["crates/sim/src/shard.rs"]

[[allow]]
rule = "S1"
path = "crates/bench/src/bin/repro_bench.rs"
justification = "GlobalAlloc impl, audited"
"#,
        )
        .unwrap();
        assert_eq!(cfg.deterministic_crates, ["sim", "model"]);
        assert_eq!(cfg.severity_of("S2"), Severity::Warn);
        assert_eq!(cfg.severity_of("D1"), Severity::Deny);
        assert_eq!(cfg.s2_expect, Severity::Allow);
        assert!(cfg.d2_allowed("crates/bench/src/lib.rs", "sp_bench"));
        assert!(!cfg.d2_allowed("crates/sim/src/engine.rs", "sp_sim::engine"));
        assert!(cfg.f2_hot("crates/sim/src/shard.rs"));
        assert!(!cfg.f2_hot("crates/sim/src/engine.rs"));
        assert!(cfg.f3_hot("crates/sim/src/shard.rs"));
        assert!(!cfg.f3_hot("crates/sim/src/engine.rs"));
        assert!(cfg
            .allow_entry("S1", "crates/bench/src/bin/repro_bench.rs")
            .is_some());
        assert!(cfg.allow_entry("S1", "crates/sim/src/engine.rs").is_none());
    }

    #[test]
    fn justification_is_mandatory() {
        let err = LintConfig::parse(
            "[[allow]]\nrule = \"S2\"\npath = \"crates/sim/\"\njustification = \"  \"\n",
        )
        .unwrap_err();
        assert!(err.contains("justification"), "{err}");
        let err =
            LintConfig::parse("[[allow]]\nrule = \"S2\"\npath = \"crates/sim/\"\n").unwrap_err();
        assert!(err.contains("justification"), "{err}");
    }

    #[test]
    fn unknown_keys_and_rules_are_hard_errors() {
        assert!(LintConfig::parse("[lint]\nbogus = \"x\"\n").is_err());
        assert!(LintConfig::parse("[severity]\nZ9 = \"deny\"\n").is_err());
        assert!(LintConfig::parse("[wat]\n").is_err());
        assert!(LintConfig::parse("[[allow]]\nrule = \"Z9\"\npath = \"x\"\n").is_err());
    }

    #[test]
    fn default_matches_rule_ids() {
        let cfg = LintConfig::default();
        for rule in RULE_IDS {
            assert_eq!(cfg.severity_of(rule), Severity::Deny);
        }
        assert!(cfg.is_deterministic("sim"));
        assert!(!cfg.is_deterministic("bench"));
        assert!(cfg.checks_unwrap("cli"));
        assert!(cfg.f2_hot("crates/sim/src/shard.rs"));
        assert!(!cfg.f2_hot("crates/cli/src/commands.rs"));
        assert!(cfg.f3_hot("crates/sim/src/shard.rs"));
        assert!(!cfg.f3_hot("crates/cli/src/commands.rs"));
        cfg.validate_layering().expect("default layering is a DAG");
    }

    #[test]
    fn module_scopes_match_on_segment_boundaries() {
        assert!(module_in_scope("sp_sim", "sp_sim"));
        assert!(module_in_scope("sp_sim", "sp_sim::engine"));
        assert!(!module_in_scope("sp_sim", "sp_simx"));
        assert!(!module_in_scope("sp_sim", "sp_simx::engine"));
        assert!(!module_in_scope("sp_sim::engine", "sp_sim"));
    }

    #[test]
    fn layering_table_parses_and_replaces_default() {
        let cfg = LintConfig::parse("[layering]\na = [\"b\"]\nb = []\n").unwrap();
        assert_eq!(cfg.layering.len(), 2);
        assert_eq!(cfg.layering_deps("a").unwrap(), ["b".to_string()]);
        assert!(cfg.layering_deps("sim").is_none(), "default replaced");
    }

    #[test]
    fn layering_cycles_are_reported_with_the_full_path() {
        let err =
            LintConfig::parse("[layering]\na = [\"b\"]\nb = [\"c\"]\nc = [\"a\"]\n").unwrap_err();
        assert!(err.contains("cycle"), "{err}");
        assert!(
            err.contains("a -> b -> c -> a")
                || err.contains("b -> c -> a -> b")
                || err.contains("c -> a -> b -> c"),
            "{err}"
        );
    }

    #[test]
    fn layering_undeclared_dep_and_duplicates_are_errors() {
        let err = LintConfig::parse("[layering]\na = [\"ghost\"]\n").unwrap_err();
        assert!(err.contains("undeclared"), "{err}");
        let err = LintConfig::parse("[layering]\na = []\na = []\n").unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn p1_and_r1_sections_parse() {
        let cfg = LintConfig::parse(
            "[rules.P1]\npure_modules = [\"sp_model\"]\nallow_modules = [\"sp_model::dbg\"]\n\
             [rules.R1]\nrng_types = [\"SmallRng\"]\nseed_roots = [\"sp_stats\"]\n\
             shard_modules = [\"sp_sim::shard\"]\n",
        )
        .unwrap();
        assert!(cfg.p1_pure("sp_model::queue"));
        assert!(!cfg.p1_pure("sp_model::dbg"));
        assert!(!cfg.p1_pure("sp_sim"));
        assert!(cfg.r1_seed_root("sp_stats::rng"));
        assert!(!cfg.r1_seed_root("sp_sim::shard"));
        assert!(cfg.r1_shard("sp_sim::shard"));
        assert_eq!(cfg.r1_rng_types, ["SmallRng".to_string()]);
    }

    #[test]
    fn unknown_keys_in_new_sections_are_errors_with_line() {
        let err = LintConfig::parse("[rules.P1]\nbogus = [\"x\"]\n").unwrap_err();
        assert!(err.contains("lint.toml:2"), "{err}");
        let err = LintConfig::parse("[rules.R1]\nnope = \"x\"\n").unwrap_err();
        assert!(err.contains("lint.toml:2"), "{err}");
    }
}
