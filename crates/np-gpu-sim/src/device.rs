//! Named, validated device descriptors.
//!
//! The simulator began life with hardcoded presets (`DeviceConfig::gtx680()`
//! and friends). This module promotes those presets into a small device
//! subsystem: a registry of named devices, a canonical descriptor encoding
//! (JSON, plus a TOML reader/writer for hand-edited configs), a `validate()`
//! pass that rejects inconsistent parameter combinations as typed errors
//! instead of silent nonsense, and a stable FNV-1a digest of the canonical
//! encoding so downstream artifacts (bench trajectories, serve cache keys,
//! replay captures) can pin the exact device they were produced on.
//!
//! The cross-device contract the rest of the stack relies on: functional
//! output and race reports are a pure function of kernel + arguments and are
//! byte-identical on every device; only timing, occupancy and stall artifacts
//! may move between devices.

use crate::config::{DeviceConfig, DynParConfig, WARP_SIZE};
use np_obs::json::{quote, Json};
use std::fmt;
use std::path::Path;

/// Schema tag written into (and accepted from) descriptors.
pub const DEVICE_SCHEMA: &str = "np-device-v1";

/// Names of the built-in registry devices, in presentation order.
pub const REGISTRY: &[&str] = &["gtx680", "k20c", "maxwell", "small_test"];

/// Everything that can go wrong constructing or validating a device
/// descriptor. Validation failures carry the offending field so tests (and
/// users) can tell *which* rule fired, not just that one did.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceError {
    /// The descriptor has an empty `name`.
    EmptyName,
    /// A field that must be strictly positive is zero.
    ZeroField(&'static str),
    /// A thread-count limit is not a multiple of the 32-thread warp.
    WarpMisaligned { field: &'static str, value: u32 },
    /// A capacity is not a multiple of its allocation granularity (or a
    /// cache size is not a whole number of lines / sets).
    GranularityViolation { field: &'static str, value: u32, granularity: u32 },
    /// A line or transaction size that the engine requires to be a power of
    /// two is not one.
    NotPowerOfTwo { field: &'static str, value: u32 },
    /// The core clock is not a finite positive number.
    BadClock(f64),
    /// A dynamic-parallelism overhead parameter is out of range.
    BadDynPar { field: &'static str, value: f64 },
    /// `resolve` was given a name that is not in the registry.
    UnknownDevice { name: String },
    /// A descriptor file could not be read.
    Io { path: String, detail: String },
    /// The descriptor text is not well-formed JSON/TOML.
    Parse { detail: String },
    /// The descriptor declares a schema other than [`DEVICE_SCHEMA`].
    BadSchema(String),
    /// A required field is absent from the descriptor.
    MissingField(&'static str),
    /// The descriptor carries a field no device has.
    UnknownField(String),
    /// A field is present but its value does not parse as the field's type.
    BadValue { field: &'static str, value: String },
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::EmptyName => write!(f, "device name must not be empty"),
            DeviceError::ZeroField(field) => {
                write!(f, "device field `{field}` must be greater than zero")
            }
            DeviceError::WarpMisaligned { field, value } => write!(
                f,
                "device field `{field}` = {value} is not a multiple of the {WARP_SIZE}-thread warp"
            ),
            DeviceError::GranularityViolation { field, value, granularity } => write!(
                f,
                "device field `{field}` = {value} is not a multiple of its granularity {granularity}"
            ),
            DeviceError::NotPowerOfTwo { field, value } => {
                write!(f, "device field `{field}` = {value} must be a power of two")
            }
            DeviceError::BadClock(v) => {
                write!(f, "device clock_ghz = {v} must be a finite positive number")
            }
            DeviceError::BadDynPar { field, value } => {
                write!(f, "dynpar field `{field}` = {value} is out of range")
            }
            DeviceError::UnknownDevice { name } => {
                write!(f, "unknown device '{}' (available: {})", name, REGISTRY.join(", "))
            }
            DeviceError::Io { path, detail } => {
                write!(f, "cannot read device descriptor {path}: {detail}")
            }
            DeviceError::Parse { detail } => write!(f, "malformed device descriptor: {detail}"),
            DeviceError::BadSchema(s) => {
                write!(f, "unsupported device descriptor schema '{s}' (expected {DEVICE_SCHEMA})")
            }
            DeviceError::MissingField(field) => {
                write!(f, "device descriptor is missing field `{field}`")
            }
            DeviceError::UnknownField(field) => {
                write!(f, "device descriptor has unknown field `{field}`")
            }
            DeviceError::BadValue { field, value } => {
                write!(f, "device field `{field}` has malformed value `{value}`")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// Look up a registry device by its short name.
pub fn from_name(name: &str) -> Result<DeviceConfig, DeviceError> {
    match name {
        "gtx680" => Ok(DeviceConfig::gtx680()),
        "k20c" => Ok(DeviceConfig::k20c()),
        "maxwell" => Ok(DeviceConfig::maxwell_like()),
        "small_test" => Ok(DeviceConfig::small_test()),
        _ => Err(DeviceError::UnknownDevice { name: name.to_string() }),
    }
}

/// Resolve a device *spec* — either a registry name (`gtx680`) or a path to
/// a JSON/TOML descriptor file (recognised by a path separator or a
/// `.json`/`.toml` extension). File-loaded descriptors are validated before
/// they are returned; registry presets are valid by construction (and the
/// test suite proves it).
pub fn resolve(spec: &str) -> Result<DeviceConfig, DeviceError> {
    let looks_like_path = spec.contains('/')
        || spec.contains('\\')
        || spec.ends_with(".json")
        || spec.ends_with(".toml");
    if looks_like_path {
        load_descriptor(Path::new(spec))
    } else {
        from_name(spec)
    }
}

/// Load, parse and validate a descriptor file. The format is chosen by
/// extension: `.toml` parses as TOML, anything else as JSON.
pub fn load_descriptor(path: &Path) -> Result<DeviceConfig, DeviceError> {
    let text = std::fs::read_to_string(path).map_err(|e| DeviceError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    let is_toml = path.extension().map(|e| e == "toml").unwrap_or(false);
    let dev = if is_toml { parse_toml(&text) } else { parse_json(&text) }?;
    dev.validate()?;
    Ok(dev)
}

impl DeviceConfig {
    /// Check the parameter set for internal consistency. Returns the first
    /// violated rule as a typed error. Note there is deliberately no
    /// `max_threads_per_block <= max_threads_per_smx` rule: the `small_test`
    /// preset allows 1024-thread blocks on a 512-thread SMX precisely so
    /// that occupancy rejection paths stay testable.
    pub fn validate(&self) -> Result<(), DeviceError> {
        if self.name.is_empty() {
            return Err(DeviceError::EmptyName);
        }
        let positive: &[(&'static str, u32)] = &[
            ("num_smx", self.num_smx),
            ("max_threads_per_block", self.max_threads_per_block),
            ("max_threads_per_smx", self.max_threads_per_smx),
            ("max_blocks_per_smx", self.max_blocks_per_smx),
            ("registers_per_smx", self.registers_per_smx),
            ("max_registers_per_thread", self.max_registers_per_thread),
            ("register_alloc_granularity", self.register_alloc_granularity),
            ("shared_mem_per_smx", self.shared_mem_per_smx),
            ("shared_alloc_granularity", self.shared_alloc_granularity),
            ("l1_bytes", self.l1_bytes),
            ("l1_line", self.l1_line),
            ("l1_assoc", self.l1_assoc),
            ("tex_cache_bytes", self.tex_cache_bytes),
            ("l2_bytes", self.l2_bytes),
            ("l2_assoc", self.l2_assoc),
            ("l2_latency", self.l2_latency),
            ("mem_queue_depth", self.mem_queue_depth),
            ("issue_per_cycle", self.issue_per_cycle),
            ("alu_latency", self.alu_latency),
            ("sfu_latency", self.sfu_latency),
            ("global_latency", self.global_latency),
            ("dram_bytes_per_cycle", self.dram_bytes_per_cycle),
            ("txn_bytes", self.txn_bytes),
            ("shared_latency", self.shared_latency),
            ("l1_hit_latency", self.l1_hit_latency),
            ("const_latency", self.const_latency),
            ("shfl_latency", self.shfl_latency),
        ];
        for &(field, value) in positive {
            if value == 0 {
                return Err(DeviceError::ZeroField(field));
            }
        }
        let warp_aligned: &[(&'static str, u32)] = &[
            ("max_threads_per_block", self.max_threads_per_block),
            ("max_threads_per_smx", self.max_threads_per_smx),
        ];
        for &(field, value) in warp_aligned {
            if value % WARP_SIZE != 0 {
                return Err(DeviceError::WarpMisaligned { field, value });
            }
        }
        let pow2: &[(&'static str, u32)] = &[
            ("l1_line", self.l1_line),
            ("txn_bytes", self.txn_bytes),
        ];
        for &(field, value) in pow2 {
            if !value.is_power_of_two() {
                return Err(DeviceError::NotPowerOfTwo { field, value });
            }
        }
        if !self.registers_per_smx.is_multiple_of(self.register_alloc_granularity) {
            return Err(DeviceError::GranularityViolation {
                field: "registers_per_smx",
                value: self.registers_per_smx,
                granularity: self.register_alloc_granularity,
            });
        }
        if !self.shared_mem_per_smx.is_multiple_of(self.shared_alloc_granularity) {
            return Err(DeviceError::GranularityViolation {
                field: "shared_mem_per_smx",
                value: self.shared_mem_per_smx,
                granularity: self.shared_alloc_granularity,
            });
        }
        if !self.l1_bytes.is_multiple_of(self.l1_line) {
            return Err(DeviceError::GranularityViolation {
                field: "l1_bytes",
                value: self.l1_bytes,
                granularity: self.l1_line,
            });
        }
        let l1_lines = self.l1_bytes / self.l1_line;
        if !l1_lines.is_multiple_of(self.l1_assoc) {
            return Err(DeviceError::GranularityViolation {
                field: "l1_assoc",
                value: l1_lines,
                granularity: self.l1_assoc,
            });
        }
        if !self.clock_ghz.is_finite() || self.clock_ghz <= 0.0 {
            return Err(DeviceError::BadClock(self.clock_ghz));
        }
        if !self.dynpar.enabled_overhead.is_finite() || self.dynpar.enabled_overhead < 1.0 {
            return Err(DeviceError::BadDynPar {
                field: "enabled_overhead",
                value: self.dynpar.enabled_overhead,
            });
        }
        if self.dynpar.launch_parallelism == 0 {
            return Err(DeviceError::BadDynPar { field: "launch_parallelism", value: 0.0 });
        }
        Ok(())
    }

    /// Canonical JSON descriptor: every field in declaration order, one per
    /// line, floats in shortest round-trip form. Parsing this text yields a
    /// config whose own `descriptor_json()` is byte-identical — the digest
    /// is stable across round trips.
    pub fn descriptor_json(&self) -> String {
        fn nu(s: &mut String, key: &str, v: u64) {
            s.push_str(&format!("  \"{key}\": {v},\n"));
        }
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{DEVICE_SCHEMA}\",\n"));
        s.push_str(&format!("  \"name\": {},\n", quote(&self.name)));
        nu(&mut s, "num_smx", self.num_smx as u64);
        nu(&mut s, "max_threads_per_block", self.max_threads_per_block as u64);
        nu(&mut s, "max_threads_per_smx", self.max_threads_per_smx as u64);
        nu(&mut s, "max_blocks_per_smx", self.max_blocks_per_smx as u64);
        nu(&mut s, "registers_per_smx", self.registers_per_smx as u64);
        nu(&mut s, "max_registers_per_thread", self.max_registers_per_thread as u64);
        nu(&mut s, "register_alloc_granularity", self.register_alloc_granularity as u64);
        nu(&mut s, "shared_mem_per_smx", self.shared_mem_per_smx as u64);
        nu(&mut s, "shared_alloc_granularity", self.shared_alloc_granularity as u64);
        nu(&mut s, "l1_bytes", self.l1_bytes as u64);
        nu(&mut s, "l1_line", self.l1_line as u64);
        nu(&mut s, "l1_assoc", self.l1_assoc as u64);
        nu(&mut s, "tex_cache_bytes", self.tex_cache_bytes as u64);
        nu(&mut s, "l2_bytes", self.l2_bytes as u64);
        nu(&mut s, "l2_assoc", self.l2_assoc as u64);
        nu(&mut s, "l2_latency", self.l2_latency as u64);
        nu(&mut s, "mem_queue_depth", self.mem_queue_depth as u64);
        nu(&mut s, "issue_per_cycle", self.issue_per_cycle as u64);
        nu(&mut s, "alu_latency", self.alu_latency as u64);
        nu(&mut s, "sfu_latency", self.sfu_latency as u64);
        nu(&mut s, "global_latency", self.global_latency as u64);
        nu(&mut s, "dram_bytes_per_cycle", self.dram_bytes_per_cycle as u64);
        nu(&mut s, "txn_bytes", self.txn_bytes as u64);
        nu(&mut s, "shared_latency", self.shared_latency as u64);
        nu(&mut s, "shared_replay_cost", self.shared_replay_cost as u64);
        nu(&mut s, "l1_hit_latency", self.l1_hit_latency as u64);
        nu(&mut s, "const_latency", self.const_latency as u64);
        nu(&mut s, "const_serialize_cost", self.const_serialize_cost as u64);
        nu(&mut s, "shfl_latency", self.shfl_latency as u64);
        s.push_str(&format!("  \"supports_shfl\": {},\n", self.supports_shfl));
        nu(&mut s, "barrier_cost", self.barrier_cost as u64);
        nu(&mut s, "block_launch_cost", self.block_launch_cost as u64);
        s.push_str(&format!("  \"clock_ghz\": {:?},\n", self.clock_ghz));
        s.push_str("  \"dynpar\": {\n");
        s.push_str(&format!(
            "    \"enabled_overhead\": {:?},\n",
            self.dynpar.enabled_overhead
        ));
        s.push_str(&format!(
            "    \"launch_overhead_cycles\": {},\n",
            self.dynpar.launch_overhead_cycles
        ));
        s.push_str(&format!(
            "    \"launch_parallelism\": {},\n",
            self.dynpar.launch_parallelism
        ));
        s.push_str(&format!(
            "    \"global_handoff_cycles\": {}\n",
            self.dynpar.global_handoff_cycles
        ));
        s.push_str("  }\n");
        s.push_str("}\n");
        s
    }

    /// Canonical TOML descriptor, same field order and float formatting as
    /// [`DeviceConfig::descriptor_json`]. A starting point for hand-edited
    /// device files.
    pub fn descriptor_toml(&self) -> String {
        fn nu(s: &mut String, key: &str, v: u64) {
            s.push_str(&format!("{key} = {v}\n"));
        }
        let mut s = String::new();
        s.push_str(&format!("schema = \"{DEVICE_SCHEMA}\"\n"));
        s.push_str(&format!("name = {}\n", quote(&self.name)));
        nu(&mut s, "num_smx", self.num_smx as u64);
        nu(&mut s, "max_threads_per_block", self.max_threads_per_block as u64);
        nu(&mut s, "max_threads_per_smx", self.max_threads_per_smx as u64);
        nu(&mut s, "max_blocks_per_smx", self.max_blocks_per_smx as u64);
        nu(&mut s, "registers_per_smx", self.registers_per_smx as u64);
        nu(&mut s, "max_registers_per_thread", self.max_registers_per_thread as u64);
        nu(&mut s, "register_alloc_granularity", self.register_alloc_granularity as u64);
        nu(&mut s, "shared_mem_per_smx", self.shared_mem_per_smx as u64);
        nu(&mut s, "shared_alloc_granularity", self.shared_alloc_granularity as u64);
        nu(&mut s, "l1_bytes", self.l1_bytes as u64);
        nu(&mut s, "l1_line", self.l1_line as u64);
        nu(&mut s, "l1_assoc", self.l1_assoc as u64);
        nu(&mut s, "tex_cache_bytes", self.tex_cache_bytes as u64);
        nu(&mut s, "l2_bytes", self.l2_bytes as u64);
        nu(&mut s, "l2_assoc", self.l2_assoc as u64);
        nu(&mut s, "l2_latency", self.l2_latency as u64);
        nu(&mut s, "mem_queue_depth", self.mem_queue_depth as u64);
        nu(&mut s, "issue_per_cycle", self.issue_per_cycle as u64);
        nu(&mut s, "alu_latency", self.alu_latency as u64);
        nu(&mut s, "sfu_latency", self.sfu_latency as u64);
        nu(&mut s, "global_latency", self.global_latency as u64);
        nu(&mut s, "dram_bytes_per_cycle", self.dram_bytes_per_cycle as u64);
        nu(&mut s, "txn_bytes", self.txn_bytes as u64);
        nu(&mut s, "shared_latency", self.shared_latency as u64);
        nu(&mut s, "shared_replay_cost", self.shared_replay_cost as u64);
        nu(&mut s, "l1_hit_latency", self.l1_hit_latency as u64);
        nu(&mut s, "const_latency", self.const_latency as u64);
        nu(&mut s, "const_serialize_cost", self.const_serialize_cost as u64);
        nu(&mut s, "shfl_latency", self.shfl_latency as u64);
        s.push_str(&format!("supports_shfl = {}\n", self.supports_shfl));
        nu(&mut s, "barrier_cost", self.barrier_cost as u64);
        nu(&mut s, "block_launch_cost", self.block_launch_cost as u64);
        s.push_str(&format!("clock_ghz = {:?}\n", self.clock_ghz));
        s.push_str("\n[dynpar]\n");
        s.push_str(&format!("enabled_overhead = {:?}\n", self.dynpar.enabled_overhead));
        s.push_str(&format!("launch_overhead_cycles = {}\n", self.dynpar.launch_overhead_cycles));
        s.push_str(&format!("launch_parallelism = {}\n", self.dynpar.launch_parallelism));
        s.push_str(&format!("global_handoff_cycles = {}\n", self.dynpar.global_handoff_cycles));
        s
    }

    /// Stable FNV-1a digest of the canonical JSON descriptor. Two configs
    /// digest equal iff every parameter is equal; the digest is embedded in
    /// bench trajectories so a baseline diff can tell "the device changed"
    /// apart from "the simulator regressed".
    pub fn digest(&self) -> u64 {
        np_obs::fnv64(self.descriptor_json().as_bytes())
    }

    /// `digest()` as fixed-width lowercase hex, the form artifacts carry.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }
}

fn perr(detail: impl Into<String>) -> DeviceError {
    DeviceError::Parse { detail: detail.into() }
}

/// Parse a JSON descriptor: a flat object with one nested `dynpar` object.
pub fn parse_json(text: &str) -> Result<DeviceConfig, DeviceError> {
    match Json::parse(text).map_err(perr)? {
        Json::Obj(fields) => build(fields),
        _ => Err(perr("descriptor is not a JSON object")),
    }
}

/// Parse a TOML descriptor: `key = value` lines, `#` comments, and a single
/// optional `[dynpar]` table. Each value is read as a JSON scalar, so TOML
/// and JSON descriptors lower to the same [`Json`] object and share one
/// field mapper.
pub fn parse_toml(text: &str) -> Result<DeviceConfig, DeviceError> {
    let mut top: Vec<(String, Json)> = Vec::new();
    let mut dynpar: Vec<(String, Json)> = Vec::new();
    let mut in_dynpar = false;
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_toml_comment(raw).trim();
        let at_line = |e: String| perr(format!("line {}: {e}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(section) = line.strip_prefix('[') {
            let section = section
                .strip_suffix(']')
                .ok_or_else(|| at_line("unterminated table header".into()))?;
            if section.trim() != "dynpar" {
                return Err(DeviceError::UnknownField(format!("[{}]", section.trim())));
            }
            in_dynpar = true;
            continue;
        }
        let (key, raw_val) =
            line.split_once('=').ok_or_else(|| at_line("expected `key = value`".into()))?;
        let val = Json::parse(raw_val.trim()).map_err(at_line)?;
        let table = if in_dynpar { &mut dynpar } else { &mut top };
        table.push((key.trim().to_string(), val));
    }
    if !dynpar.is_empty() {
        top.push(("dynpar".to_string(), Json::Obj(dynpar)));
    }
    build(top)
}

fn strip_toml_comment(line: &str) -> &str {
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

fn take(fields: &mut Vec<(String, Json)>, key: &str) -> Option<Json> {
    fields.iter().position(|(k, _)| k == key).map(|i| fields.remove(i).1)
}

fn bad_value(field: &'static str, v: &Json) -> DeviceError {
    DeviceError::BadValue { field, value: format!("{v:?}") }
}

fn take_str(fields: &mut Vec<(String, Json)>, key: &'static str) -> Result<String, DeviceError> {
    match take(fields, key) {
        None => Err(DeviceError::MissingField(key)),
        Some(Json::Str(s)) => Ok(s),
        Some(v) => Err(bad_value(key, &v)),
    }
}

/// A numeric field parsed from the number's source text, so a `u32` field
/// takes exactly the `u32` literals (`8.0` is a `BadValue`).
fn take_num<T: std::str::FromStr>(
    fields: &mut Vec<(String, Json)>,
    key: &'static str,
) -> Result<T, DeviceError> {
    match take(fields, key) {
        None => Err(DeviceError::MissingField(key)),
        Some(Json::Num(raw)) => {
            raw.parse().map_err(|_| DeviceError::BadValue { field: key, value: raw })
        }
        Some(v) => Err(bad_value(key, &v)),
    }
}

fn take_bool(fields: &mut Vec<(String, Json)>, key: &'static str) -> Result<bool, DeviceError> {
    match take(fields, key) {
        None => Err(DeviceError::MissingField(key)),
        Some(Json::Bool(b)) => Ok(b),
        Some(v) => Err(bad_value(key, &v)),
    }
}

fn build(mut fields: Vec<(String, Json)>) -> Result<DeviceConfig, DeviceError> {
    if let Some(v) = take(&mut fields, "schema") {
        match v {
            Json::Str(s) if s == DEVICE_SCHEMA => {}
            Json::Str(s) => return Err(DeviceError::BadSchema(s)),
            other => return Err(bad_value("schema", &other)),
        }
    }
    let dynpar = match take(&mut fields, "dynpar") {
        None => Err(DeviceError::MissingField("dynpar")),
        Some(Json::Obj(mut inner)) => {
            let d = DynParConfig {
                enabled_overhead: take_num(&mut inner, "enabled_overhead")?,
                launch_overhead_cycles: take_num(&mut inner, "launch_overhead_cycles")?,
                launch_parallelism: take_num(&mut inner, "launch_parallelism")?,
                global_handoff_cycles: take_num(&mut inner, "global_handoff_cycles")?,
            };
            if let Some((k, _)) = inner.first() {
                return Err(DeviceError::UnknownField(format!("dynpar.{k}")));
            }
            Ok(d)
        }
        Some(v) => Err(bad_value("dynpar", &v)),
    }?;
    let dev = DeviceConfig {
        name: take_str(&mut fields, "name")?,
        num_smx: take_num(&mut fields, "num_smx")?,
        max_threads_per_block: take_num(&mut fields, "max_threads_per_block")?,
        max_threads_per_smx: take_num(&mut fields, "max_threads_per_smx")?,
        max_blocks_per_smx: take_num(&mut fields, "max_blocks_per_smx")?,
        registers_per_smx: take_num(&mut fields, "registers_per_smx")?,
        max_registers_per_thread: take_num(&mut fields, "max_registers_per_thread")?,
        register_alloc_granularity: take_num(&mut fields, "register_alloc_granularity")?,
        shared_mem_per_smx: take_num(&mut fields, "shared_mem_per_smx")?,
        shared_alloc_granularity: take_num(&mut fields, "shared_alloc_granularity")?,
        l1_bytes: take_num(&mut fields, "l1_bytes")?,
        l1_line: take_num(&mut fields, "l1_line")?,
        l1_assoc: take_num(&mut fields, "l1_assoc")?,
        tex_cache_bytes: take_num(&mut fields, "tex_cache_bytes")?,
        l2_bytes: take_num(&mut fields, "l2_bytes")?,
        l2_assoc: take_num(&mut fields, "l2_assoc")?,
        l2_latency: take_num(&mut fields, "l2_latency")?,
        mem_queue_depth: take_num(&mut fields, "mem_queue_depth")?,
        issue_per_cycle: take_num(&mut fields, "issue_per_cycle")?,
        alu_latency: take_num(&mut fields, "alu_latency")?,
        sfu_latency: take_num(&mut fields, "sfu_latency")?,
        global_latency: take_num(&mut fields, "global_latency")?,
        dram_bytes_per_cycle: take_num(&mut fields, "dram_bytes_per_cycle")?,
        txn_bytes: take_num(&mut fields, "txn_bytes")?,
        shared_latency: take_num(&mut fields, "shared_latency")?,
        shared_replay_cost: take_num(&mut fields, "shared_replay_cost")?,
        l1_hit_latency: take_num(&mut fields, "l1_hit_latency")?,
        const_latency: take_num(&mut fields, "const_latency")?,
        const_serialize_cost: take_num(&mut fields, "const_serialize_cost")?,
        shfl_latency: take_num(&mut fields, "shfl_latency")?,
        supports_shfl: take_bool(&mut fields, "supports_shfl")?,
        barrier_cost: take_num(&mut fields, "barrier_cost")?,
        block_launch_cost: take_num(&mut fields, "block_launch_cost")?,
        clock_ghz: take_num(&mut fields, "clock_ghz")?,
        dynpar,
    };
    if let Some((k, _)) = fields.first() {
        return Err(DeviceError::UnknownField(k.clone()));
    }
    Ok(dev)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_preset_validates() {
        for name in REGISTRY {
            let dev = from_name(name).unwrap();
            dev.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn unknown_name_lists_available_devices() {
        let err = from_name("titan").unwrap_err();
        assert_eq!(err, DeviceError::UnknownDevice { name: "titan".to_string() });
        let msg = err.to_string();
        assert!(msg.contains("unknown device 'titan'"), "{msg}");
        for name in REGISTRY {
            assert!(msg.contains(name), "{msg} should list {name}");
        }
    }

    #[test]
    fn registry_digests_are_pairwise_distinct() {
        let digests: Vec<(&str, u64)> =
            REGISTRY.iter().map(|n| (*n, from_name(n).unwrap().digest())).collect();
        for (i, (na, da)) in digests.iter().enumerate() {
            for (nb, db) in &digests[i + 1..] {
                assert_ne!(da, db, "{na} and {nb} digest equal");
            }
        }
    }

    #[test]
    fn json_round_trip_is_byte_identical_and_digest_stable() {
        for name in REGISTRY {
            let dev = from_name(name).unwrap();
            let text = dev.descriptor_json();
            let back = parse_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back.descriptor_json(), text, "{name} JSON not byte-stable");
            assert_eq!(back.digest(), dev.digest(), "{name} digest moved");
            assert_eq!(back.name, dev.name);
        }
    }

    #[test]
    fn toml_round_trip_matches_json_digest() {
        for name in REGISTRY {
            let dev = from_name(name).unwrap();
            let back = parse_toml(&dev.descriptor_toml()).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back.digest(), dev.digest(), "{name} TOML round trip moved the digest");
        }
    }

    #[test]
    fn toml_comments_and_blank_lines_are_ignored() {
        let mut text = String::from("# hand-edited descriptor\n\n");
        text.push_str(&DeviceConfig::gtx680().descriptor_toml());
        text.push_str("\n# trailing note\n");
        let dev = parse_toml(&text).unwrap();
        assert_eq!(dev.digest(), DeviceConfig::gtx680().digest());
    }

    #[test]
    fn validation_rejects_each_inconsistency_with_the_right_error() {
        let base = DeviceConfig::gtx680;
        let cases: Vec<(DeviceConfig, DeviceError)> = vec![
            (
                DeviceConfig { name: String::new(), ..base() },
                DeviceError::EmptyName,
            ),
            (
                DeviceConfig { num_smx: 0, ..base() },
                DeviceError::ZeroField("num_smx"),
            ),
            (
                DeviceConfig { max_threads_per_block: 1000, ..base() },
                DeviceError::WarpMisaligned { field: "max_threads_per_block", value: 1000 },
            ),
            (
                DeviceConfig { registers_per_smx: 65_537, ..base() },
                DeviceError::GranularityViolation {
                    field: "registers_per_smx",
                    value: 65_537,
                    granularity: 256,
                },
            ),
            (
                DeviceConfig { txn_bytes: 96, ..base() },
                DeviceError::NotPowerOfTwo { field: "txn_bytes", value: 96 },
            ),
            (
                DeviceConfig { l1_bytes: 16 * 1024 + 64, ..base() },
                DeviceError::GranularityViolation {
                    field: "l1_bytes",
                    value: 16 * 1024 + 64,
                    granularity: 128,
                },
            ),
            (
                DeviceConfig { l1_assoc: 3, ..base() },
                DeviceError::GranularityViolation { field: "l1_assoc", value: 128, granularity: 3 },
            ),
            (
                DeviceConfig { clock_ghz: 0.0, ..base() },
                DeviceError::BadClock(0.0),
            ),
            (
                DeviceConfig {
                    dynpar: DynParConfig { enabled_overhead: 0.5, ..DynParConfig::kepler() },
                    ..base()
                },
                DeviceError::BadDynPar { field: "enabled_overhead", value: 0.5 },
            ),
        ];
        for (dev, want) in cases {
            assert_eq!(dev.validate(), Err(want.clone()), "expected {want:?}");
        }
    }

    #[test]
    fn parser_rejects_unknown_and_missing_fields_with_typed_errors() {
        let dev = DeviceConfig::gtx680();
        let with_extra = dev.descriptor_json().replace(
            "\"num_smx\": 8,",
            "\"num_smx\": 8,\n  \"warp_width\": 32,",
        );
        assert_eq!(
            parse_json(&with_extra).unwrap_err(),
            DeviceError::UnknownField("warp_width".to_string())
        );
        let without_clock = dev.descriptor_json().replace("  \"clock_ghz\": 1.006,\n", "");
        assert_eq!(parse_json(&without_clock).unwrap_err(), DeviceError::MissingField("clock_ghz"));
        let bad_schema = dev.descriptor_json().replace("np-device-v1", "np-device-v0");
        assert_eq!(
            parse_json(&bad_schema).unwrap_err(),
            DeviceError::BadSchema("np-device-v0".to_string())
        );
    }

    #[test]
    fn counts_must_be_integer_literals_in_both_encodings() {
        let dev = DeviceConfig::gtx680();
        let json = dev.descriptor_json().replace("\"num_smx\": 8,", "\"num_smx\": 8.0,");
        let toml = dev.descriptor_toml().replace("num_smx = 8\n", "num_smx = 8.0\n");
        let want = DeviceError::BadValue { field: "num_smx", value: "8.0".to_string() };
        assert_eq!(parse_json(&json).unwrap_err(), want);
        assert_eq!(parse_toml(&toml).unwrap_err(), want);
    }

    #[test]
    fn names_with_quotes_and_escapes_round_trip_in_both_encodings() {
        let dev = DeviceConfig { name: "lab \"A\" gpu \\ #2\n".to_string(), ..DeviceConfig::k20c() };
        assert_eq!(parse_json(&dev.descriptor_json()).unwrap().name, dev.name);
        assert_eq!(parse_toml(&dev.descriptor_toml()).unwrap().name, dev.name);
    }

    #[test]
    fn resolve_takes_names_and_paths() {
        assert_eq!(resolve("maxwell").unwrap().name, DeviceConfig::maxwell_like().name);
        let dir = std::env::temp_dir().join("np_device_resolve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let json_path = dir.join("dev.json");
        std::fs::write(&json_path, DeviceConfig::k20c().descriptor_json()).unwrap();
        let loaded = resolve(json_path.to_str().unwrap()).unwrap();
        assert_eq!(loaded.digest(), DeviceConfig::k20c().digest());
        let toml_path = dir.join("dev.toml");
        std::fs::write(&toml_path, DeviceConfig::small_test().descriptor_toml()).unwrap();
        let loaded = resolve(toml_path.to_str().unwrap()).unwrap();
        assert_eq!(loaded.digest(), DeviceConfig::small_test().digest());
    }

    #[test]
    fn file_load_validates_before_returning() {
        let dir = std::env::temp_dir().join("np_device_invalid_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("zero_smx.json");
        let text = DeviceConfig::gtx680().descriptor_json().replace("\"num_smx\": 8", "\"num_smx\": 0");
        std::fs::write(&path, text).unwrap();
        assert_eq!(
            resolve(path.to_str().unwrap()).unwrap_err(),
            DeviceError::ZeroField("num_smx")
        );
    }
}
