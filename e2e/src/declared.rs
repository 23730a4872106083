//! The metric names `BENCHMARK.json` declares, as the program emits
//! them. A unit test holds the two lists against the file.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// As `BENCHMARK.json` spells it (the contract test compares).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` `value` is worse (negative: better).
    pub fn worse_by(self, base: f64, value: f64) -> f64 {
        match self {
            Better::Lower => (value - base) / base,
            Better::Higher => (base - value) / base,
        }
    }
}

/// An end-to-end metric: every workload reports every one, tracing off.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "get_ns_p50",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "index_bytes_per_key",
        unit: "B",
        better: Better::Lower,
        bound: 0.02,
    },
    EndToEnd {
        name: "rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A per-layer metric: every traced run reports every one. No bound;
/// the README says which end-to-end metric each should move.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Declared in `BENCHMARK.json`; the program itself never compares
    /// per-layer values.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 59] = [
    lower("plr.segment_ns_per_key", "ns"),
    lower("plr.segments_per_mkey", "count"),
    lower("core.build_ns_per_key", "ns"),
    lower("core.get_ns", "ns"),
    lower("core.locate_ns", "ns"),
    lower("core.segment_ns", "ns"),
    lower("core.insert_ns", "ns"),
    lower("core.remove_ns", "ns"),
    lower("core.range100_ns", "ns"),
    lower("core.segments", "count"),
    lower("core.resegment_share", "ratio"),
    lower("core.entries_per_splice", "count"),
    lower("core.buffered_share", "ratio"),
    lower("core.snapshot_encode_ns_per_key", "ns"),
    lower("core.snapshot_decode_ns_per_key", "ns"),
    lower("sharded.bulk_load_ns_per_key", "ns"),
    lower("sharded.get_self_ns", "ns"),
    lower("sharded.insert_self_ns", "ns"),
    lower("sharded.range100_self_ns", "ns"),
    lower("sharded.contended_read_share", "ratio"),
    lower("sharded.routing_refreshes", "count"),
    lower("sharded.publishes", "count"),
    higher("sharded.mt_ops_per_s", "1/s"),
    lower("service.submit_ns", "ns"),
    lower("service.get_self_ns", "ns"),
    lower("service.cpu_ns_per_op", "ns"),
    lower("service.sync_roundtrip_ns_p50", "ns"),
    lower("service.queue_push_pop_ns", "ns"),
    lower("service.ticket_roundtrip_ns", "ns"),
    lower("service.get.queue_wait_ns_p50", "ns"),
    lower("service.get.queue_wait_ns_p99", "ns"),
    lower("service.get.execute_ns_p50", "ns"),
    lower("service.get.execute_ns_p99", "ns"),
    lower("service.insert.queue_wait_ns_p50", "ns"),
    lower("service.insert.queue_wait_ns_p99", "ns"),
    lower("service.insert.execute_ns_p50", "ns"),
    lower("service.insert.execute_ns_p99", "ns"),
    higher("service.mean_batch_len", "count"),
    lower("service.read_runs", "count"),
    lower("service.write_runs", "count"),
    higher("service.coalesced_writes", "count"),
    lower("storage.write_calls", "count"),
    lower("storage.bytes_written", "B"),
    lower("storage.fsyncs", "count"),
    lower("storage.dir_syncs", "count"),
    lower("storage.renames", "count"),
    lower("storage.write_ns_total", "ns"),
    lower("storage.fsync_ns_total", "ns"),
    lower("storage.wal_bytes_per_insert", "B"),
    lower("storage.checkpoint_s", "s"),
    lower("storage.wal_append_commit_ns", "ns"),
    lower("storage.replayed_ops", "count"),
    lower("storage.snapshot_bytes", "B"),
    lower("storage.self_ns_per_op", "ns"),
    lower("storage.recover_s", "s"),
    lower("storage.write_amp", "ratio"),
    lower("telemetry.record_ns", "ns"),
    lower("trace.overhead_share", "ratio"),
    lower("trace.ladder_residual_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use fiting_telemetry::json::Json;

    /// What `BENCHMARK.json` must say, built from what the program emits.
    fn expected() -> Json {
        let text = |s: &str| Json::Str(s.into());
        let workloads = WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| {
                Json::obj()
                    .with("name", text(w.name))
                    .with("why", text(w.why))
            })
            .collect();
        let end_to_end = END_TO_END
            .iter()
            .map(|m| {
                Json::obj()
                    .with("name", text(m.name))
                    .with("unit", text(m.unit))
                    .with("better", text(m.better.as_str()))
                    .with("bound", Json::Num(m.bound))
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .map(|m| {
                Json::obj()
                    .with("name", text(m.name))
                    .with("unit", text(m.unit))
                    .with("better", text(m.better.as_str()))
            })
            .collect();
        let command = [
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
            "e2e/Cargo.toml",
            "--",
        ];
        Json::obj()
            .with(
                "command",
                Json::Arr(command.into_iter().map(text).collect()),
            )
            .with("paths", Json::Arr(vec![text("e2e")]))
            .with("run_seconds", Json::Num(crate::RUN_SECONDS))
            .with("workloads", Json::Arr(workloads))
            .with("end_to_end", Json::Arr(end_to_end))
            .with("per_layer", Json::Arr(per_layer))
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_program_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = Json::parse(&file).expect("BENCHMARK.json parses");
        assert!(
            declared == expected(),
            "BENCHMARK.json and the program disagree; the program emits:\n{}",
            expected().pretty()
        );
    }

    #[test]
    fn names_units_and_whys_are_within_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for name in &names {
            assert!(name_ok(name), "bad name {name:?}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(unit), "bad unit {unit:?}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!((2..=8).contains(&WORKLOADS.iter().filter(|w| w.gated).count()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
