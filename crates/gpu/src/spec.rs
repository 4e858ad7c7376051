//! Device specifications and the instruction-cost timing model.

use common::json::{Json, JsonError};
use sass::{Arch, OpCategory};

pub use common::Dim3;

/// Per-category instruction costs for the timing model.
///
/// Costs are warp-level issue costs in simulated cycles. Global-memory cost
/// additionally grows with the number of distinct cache lines the warp's
/// active lanes touch, so uncoalesced code is genuinely slower — the
/// property the paper's memory-divergence study (§6.1) measures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostModel {
    /// Fixed issue cost of every warp instruction.
    pub issue: u64,
    /// Base cost per category (indexed by [`OpCategory::ALL`] position).
    pub category: [u64; 14],
    /// Extra cost per distinct cache line of a global access.
    pub global_per_line: u64,
    /// Extra cost per active lane of an atomic.
    pub atomic_per_lane: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        let mut category = [1u64; 14];
        for (i, cat) in OpCategory::ALL.iter().enumerate() {
            category[i] = match cat {
                OpCategory::Integer => 2,
                OpCategory::Float => 2,
                OpCategory::Double => 8,
                OpCategory::Conversion => 2,
                OpCategory::Move => 1,
                OpCategory::Predicate => 1,
                OpCategory::Warp => 2,
                OpCategory::MemGlobal => 24,
                OpCategory::MemShared => 4,
                OpCategory::MemLocal => 8,
                OpCategory::MemConst => 2,
                OpCategory::Atomic => 16,
                OpCategory::Control => 2,
                OpCategory::Misc => 1,
            };
        }
        CostModel { issue: 1, category, global_per_line: 8, atomic_per_lane: 4 }
    }
}

impl CostModel {
    /// Base cost of a category.
    pub fn of(&self, cat: OpCategory) -> u64 {
        let idx = OpCategory::ALL.iter().position(|c| *c == cat).unwrap_or(0);
        self.category[idx]
    }

    /// Serializes the model as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("issue", Json::Num(self.issue as f64)),
            ("category", Json::Arr(self.category.iter().map(|c| Json::Num(*c as f64)).collect())),
            ("global_per_line", Json::Num(self.global_per_line as f64)),
            ("atomic_per_lane", Json::Num(self.atomic_per_lane as f64)),
        ])
    }

    /// Deserializes a model from [`CostModel::to_json`] output.
    pub fn from_json(v: &Json) -> Result<CostModel, JsonError> {
        let field = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(format!("cost model: missing integer `{key}`")))
        };
        let cats = v
            .get("category")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("cost model: missing `category` array"))?;
        if cats.len() != 14 {
            return Err(bad(format!("cost model: expected 14 categories, got {}", cats.len())));
        }
        let mut category = [0u64; 14];
        for (slot, c) in category.iter_mut().zip(cats) {
            *slot = c.as_u64().ok_or_else(|| bad("cost model: non-integer category cost"))?;
        }
        Ok(CostModel {
            issue: field("issue")?,
            category,
            global_per_line: field("global_per_line")?,
            atomic_per_lane: field("atomic_per_lane")?,
        })
    }
}

/// Static properties of a simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Architecture family.
    pub arch: Arch,
    /// Marketing-style name, for reports.
    pub name: String,
    /// Number of streaming multiprocessors (affects `SR_SMID` only; CTA
    /// scheduling order is deterministic regardless of the worker count).
    pub num_sms: u32,
    /// Global memory capacity in bytes.
    pub global_mem: u64,
    /// Shared memory capacity per CTA in bytes.
    pub shared_per_cta: u32,
    /// Default per-thread local-memory (stack) bytes when a launch does not
    /// override it.
    pub default_local: u32,
    /// Cache line size in bytes (divergence accounting granularity).
    pub cache_line: u32,
    /// Timing model.
    pub cost: CostModel,
}

fn bad(msg: impl Into<String>) -> JsonError {
    JsonError { pos: 0, msg: msg.into() }
}

impl DeviceSpec {
    /// A representative device of the given family (the Volta preset mirrors
    /// the paper's TITAN V testbed).
    pub fn preset(arch: Arch) -> DeviceSpec {
        let (name, num_sms, mem_gb) = match arch {
            Arch::Kepler => ("SimK40", 15, 2),
            Arch::Maxwell => ("SimM40", 24, 2),
            Arch::Pascal => ("SimP100", 56, 4),
            Arch::Volta => ("SimTitanV", 80, 4),
        };
        DeviceSpec {
            arch,
            name: name.to_string(),
            num_sms,
            global_mem: mem_gb * 1024 * 1024 * 1024,
            shared_per_cta: 48 * 1024,
            default_local: 16 * 1024,
            cache_line: 128,
            cost: CostModel::default(),
        }
    }

    /// A small-memory preset for unit tests (64 MiB).
    pub fn test(arch: Arch) -> DeviceSpec {
        DeviceSpec { global_mem: 64 * 1024 * 1024, ..DeviceSpec::preset(arch) }
    }

    /// Serializes the spec as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("arch", Json::Str(self.arch.name().to_string())),
            ("name", Json::Str(self.name.clone())),
            ("num_sms", Json::Num(self.num_sms as f64)),
            ("global_mem", Json::Num(self.global_mem as f64)),
            ("shared_per_cta", Json::Num(self.shared_per_cta as f64)),
            ("default_local", Json::Num(self.default_local as f64)),
            ("cache_line", Json::Num(self.cache_line as f64)),
            ("cost", self.cost.to_json()),
        ])
    }

    /// Deserializes a spec from [`DeviceSpec::to_json`] output.
    pub fn from_json(v: &Json) -> Result<DeviceSpec, JsonError> {
        let arch = v
            .get("arch")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("device spec: missing `arch`"))?
            .parse::<Arch>()
            .map_err(bad)?;
        let name = v
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("device spec: missing `name`"))?
            .to_string();
        let int = |key: &str| {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| bad(format!("device spec: missing integer `{key}`")))
        };
        let u32_of = |key: &str| {
            int(key).and_then(|v| {
                u32::try_from(v).map_err(|_| bad(format!("device spec: `{key}` out of range")))
            })
        };
        // Both are divisors in the executor (`SR_SMID`, the line count).
        let positive = |key: &str| match u32_of(key)? {
            0 => Err(bad(format!("device spec: `{key}` must not be zero"))),
            v => Ok(v),
        };
        let cost =
            CostModel::from_json(v.get("cost").ok_or_else(|| bad("device spec: missing `cost`"))?)?;
        Ok(DeviceSpec {
            arch,
            name,
            num_sms: positive("num_sms")?,
            global_mem: int("global_mem")?,
            shared_per_cta: u32_of("shared_per_cta")?,
            default_local: u32_of("default_local")?,
            cache_line: positive("cache_line")?,
            cost,
        })
    }

    /// Parses a spec from JSON text.
    pub fn parse_json(text: &str) -> Result<DeviceSpec, JsonError> {
        DeviceSpec::from_json(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_cover_all_arches() {
        for arch in Arch::ALL {
            let s = DeviceSpec::preset(arch);
            assert_eq!(s.arch, arch);
            assert!(s.num_sms > 0);
            assert_eq!(s.cache_line, 128);
        }
    }

    #[test]
    fn cost_model_orders_memory_above_alu() {
        let c = CostModel::default();
        assert!(c.of(OpCategory::MemGlobal) > c.of(OpCategory::Integer));
        assert!(c.of(OpCategory::MemShared) < c.of(OpCategory::MemGlobal));
        assert!(c.of(OpCategory::Double) > c.of(OpCategory::Float));
    }

    #[test]
    fn dim3_helpers() {
        assert_eq!(Dim3::linear(7).count(), 7);
        assert_eq!(Dim3::xyz(2, 3, 4).count(), 24);
        assert_eq!(Dim3::xyz(128, 128, 1).to_string(), "{128,128,1}");
    }

    #[test]
    fn spec_roundtrips_through_json() {
        for arch in Arch::ALL {
            let spec = DeviceSpec::preset(arch);
            let text = spec.to_json().to_pretty();
            let back = DeviceSpec::parse_json(&text).unwrap();
            assert_eq!(back, spec, "arch {arch}");
        }
    }

    /// The shipped spec with `key` set to zero.
    fn zeroed(key: &str) -> Result<DeviceSpec, JsonError> {
        let mut v = DeviceSpec::preset(Arch::Volta).to_json();
        if let Json::Obj(pairs) = &mut v {
            pairs.iter_mut().filter(|(k, _)| k == key).for_each(|(_, x)| *x = Json::Num(0.0));
        }
        DeviceSpec::from_json(&v)
    }

    #[test]
    fn spec_json_rejects_a_zero_cache_line() {
        assert!(zeroed("cache_line").unwrap_err().msg.contains("`cache_line`"));
    }

    #[test]
    fn spec_json_rejects_zero_sms() {
        assert!(zeroed("num_sms").unwrap_err().msg.contains("`num_sms`"));
    }

    #[test]
    fn spec_json_rejects_malformed_documents() {
        assert!(DeviceSpec::parse_json("{}").is_err());
        assert!(DeviceSpec::parse_json("{\"arch\": \"turing\"}").is_err());
        let mut v = DeviceSpec::preset(Arch::Volta).to_json();
        if let Json::Obj(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "cost");
        }
        assert!(DeviceSpec::from_json(&v).is_err());
    }
}
