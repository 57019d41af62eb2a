//! The device-granularity configuration delta: which devices a
//! transition adds or modifies (`upserts`) and which it removes.
//!
//! Computed once per apply by struct equality, it is the single
//! meaning of "what changed" for the line diff in the report, the
//! journal record (`persist` owns its byte format), and journal replay.

use std::collections::BTreeMap;

use rc_netcfg::linediff::diff_lines;
use rc_netcfg::printer::print_config;
use rc_netcfg::DeviceConfig;

/// The difference between two configuration sets, device by device.
/// Both lists are in hostname order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ConfigDelta {
    /// Devices added or modified, with their new configuration.
    pub upserts: Vec<(String, DeviceConfig)>,
    /// Devices removed.
    pub removes: Vec<String>,
}

impl ConfigDelta {
    /// The delta that takes `old` to `new`.
    pub fn between(
        old: &BTreeMap<String, DeviceConfig>,
        new: &BTreeMap<String, DeviceConfig>,
    ) -> Self {
        ConfigDelta {
            upserts: new
                .iter()
                .filter(|(name, cfg)| old.get(*name) != Some(*cfg))
                .map(|(name, cfg)| (name.clone(), cfg.clone()))
                .collect(),
            removes: old.keys().filter(|name| !new.contains_key(*name)).cloned().collect(),
        }
    }

    /// Whether the delta changes nothing.
    pub(super) fn is_empty(&self) -> bool {
        self.upserts.is_empty() && self.removes.is_empty()
    }

    /// Apply the delta to a configuration set in place, moving the
    /// upserted devices into it.
    pub fn apply_to(self, configs: &mut BTreeMap<String, DeviceConfig>) {
        configs.extend(self.upserts);
        for name in &self.removes {
            configs.remove(name);
        }
    }

    /// Textual size of the delta against `old`, as `(inserted,
    /// deleted)` configuration lines (the paper's view of a change).
    /// Added or removed devices diff against an empty configuration.
    pub(super) fn line_counts(&self, old: &BTreeMap<String, DeviceConfig>) -> (usize, usize) {
        let old_text = |name: &String| old.get(name).map(print_config).unwrap_or_default();
        let (mut inserted, mut deleted) = (0, 0);
        for (name, cfg) in &self.upserts {
            let d = diff_lines(&old_text(name), &print_config(cfg));
            inserted += d.insertions();
            deleted += d.deletions();
        }
        for name in &self.removes {
            deleted += diff_lines(&old_text(name), "").deletions();
        }
        (inserted, deleted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_netcfg::change::ChangeSet;
    use rc_netcfg::{gen, topology};

    /// `between(old, new).apply_to(old) == new` over added, removed,
    /// modified and untouched devices, and the delta names exactly the
    /// devices that differ.
    #[test]
    fn between_then_apply_reaches_new() {
        let old = gen::build_configs(&topology::ring(5), gen::ProtocolChoice::Ospf);
        let mut new = old.clone();
        ChangeSet::link_cost("r001", "eth0", 50).apply(&mut new).unwrap(); // modify
        new.remove("r003"); // remove
        let mut added = old["r004"].clone();
        added.hostname = "r900".into();
        new.insert("r900".into(), added); // add; r000, r002, r004 untouched

        let delta = ConfigDelta::between(&old, &new);
        let upserted: Vec<&str> = delta.upserts.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(upserted, ["r001", "r900"]);
        assert_eq!(delta.removes, ["r003"]);

        assert!(!delta.is_empty());
        assert!(ConfigDelta::between(&new, &new).is_empty());

        // One modified line, one whole device in, one whole device out.
        let lines = |name: &str| print_config(&old[name]).lines().filter(|l| *l != "!").count();
        let (inserted, deleted) = delta.line_counts(&old);
        assert_eq!(inserted, 1 + lines("r004"));
        assert_eq!(deleted, 1 + lines("r003"));

        let mut applied = old.clone();
        delta.apply_to(&mut applied);
        assert_eq!(applied, new);
    }
}
