//! Multi-panel SVG timelines from `*.series.json` telemetry documents —
//! the rendering half of the `series_dashboard` bin.
//!
//! A series document (written by
//! [`crate::harness::GridRun::write_series`]) carries one columnar
//! [`faasmem_telemetry::TimeSeries`] per grid cell. This module groups
//! one cell's columns by their dotted prefix (`faas.*`, `mem.*`,
//! `pool.*`, `registry.*`), renders each group as one [`crate::svg::lines`]
//! panel over sim-time seconds, and stacks the panels vertically into a
//! single dashboard SVG. Columns with fewer than two finite points are
//! dropped (a gauge sampled once cannot draw a line), as are gaps the
//! sampler backfilled with `null`. When the cell carries any of the
//! latency-blame gauges (cold-start activity, invocations stalled on a
//! remote recall, breaker state, under-replication) they are also
//! collected into one trailing "blame breakdown" panel, and the
//! byte-second gauges (keep-alive idle vs active memory, redundant
//! bytes, repair backlog) into a sibling "memory anatomy" panel.

use std::collections::BTreeMap;

use crate::json::{self, JsonValue};
use crate::svg;

/// Columns collected into the extra "blame breakdown" panel: the
/// cross-prefix gauges that track where invocation latency blame is
/// accruing over time. Each maps to a blame-component family —
/// launching/initializing to cold_start, the stalled-remote gauge to
/// the recall_stall/abandoned_wait family, breaker_open to
/// failover_detour, under_replicated to forced_rebuild exposure.
const BLAME_COLUMNS: [&str; 5] = [
    "faas.launching",
    "faas.initializing",
    "faas.invocations_stalled_remote",
    "pool.breaker_open",
    "pool.under_replicated",
];

/// Columns collected into the extra "memory anatomy" panel: the
/// cross-prefix gauges that track where resident byte-seconds are
/// accruing — keep-alive idle memory (the waste FaaSMem targets),
/// actively-executing memory, and the pool-side redundancy and repair
/// overheads. The `mem.*` pair only exists on runs with
/// `PlatformConfig::memory_anatomy` on; the `pool.*` pair on fabric
/// runs — the panel renders whenever any of them are drawable.
const ANATOMY_COLUMNS: [&str; 4] = [
    "mem.keepalive_idle_bytes",
    "mem.active_bytes",
    "pool.redundant_bytes",
    "pool.repair_backlog_bytes",
];

/// One grid cell's time series, decoded from the document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesCell {
    /// `trace/bench/config/policy` label.
    pub label: String,
    /// Shared time axis in sim seconds.
    pub t_secs: Vec<f64>,
    /// Named columns aligned with `t_secs`; `null` gaps decode to NaN.
    pub columns: Vec<(String, Vec<f64>)>,
}

/// A decoded `*.series.json` document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesDoc {
    /// Grid name from the producing run.
    pub grid: String,
    /// Cells in grid order.
    pub cells: Vec<SeriesCell>,
}

fn txt<'a>(doc: &'a JsonValue, key: &str) -> &'a str {
    doc.get(key).and_then(JsonValue::as_str).unwrap_or("?")
}

fn nums(value: &JsonValue) -> Vec<f64> {
    value
        .as_arr()
        .map(|items| {
            items
                .iter()
                .map(|v| v.as_num().unwrap_or(f64::NAN))
                .collect()
        })
        .unwrap_or_default()
}

/// Parses a series document from its JSON text.
pub fn parse_series(input: &str) -> Result<SeriesDoc, String> {
    let doc = json::parse(input)?;
    let grid = doc
        .get("grid")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing \"grid\" (is this a .series.json file?)".to_string())?
        .to_string();
    let cells_json = doc
        .get("cells")
        .and_then(JsonValue::as_arr)
        .ok_or_else(|| "missing \"cells\" array".to_string())?;
    let mut cells = Vec::new();
    for (i, c) in cells_json.iter().enumerate() {
        let label = format!(
            "{}/{}/{}/{}",
            txt(c, "trace"),
            txt(c, "bench"),
            txt(c, "config"),
            txt(c, "policy")
        );
        let t_secs: Vec<f64> = nums(
            c.get("t_us")
                .ok_or_else(|| format!("cell {i}: missing \"t_us\""))?,
        )
        .iter()
        .map(|us| us / 1e6)
        .collect();
        let mut columns = Vec::new();
        if let Some(JsonValue::Obj(members)) = c.get("series") {
            for (name, values) in members {
                let values = nums(values);
                if values.len() != t_secs.len() {
                    return Err(format!(
                        "cell {i}: column {name:?} has {} values for {} ticks",
                        values.len(),
                        t_secs.len()
                    ));
                }
                columns.push((name.to_string(), values));
            }
        }
        cells.push(SeriesCell {
            label,
            t_secs,
            columns,
        });
    }
    Ok(SeriesDoc { grid, cells })
}

/// Renders one cell of the document as a stacked multi-panel SVG: one
/// panel per series-name prefix group, plus trailing "blame breakdown"
/// and "memory anatomy" panels collecting the [`BLAME_COLUMNS`] and
/// [`ANATOMY_COLUMNS`] gauges when any of them are drawable. Returns
/// an error when the cell index is out of range or no column has two
/// finite points to draw.
pub fn render_dashboard(doc: &SeriesDoc, cell_index: usize) -> Result<String, String> {
    let cell = doc.cells.get(cell_index).ok_or_else(|| {
        format!(
            "cell {cell_index} out of range (document has {} cells)",
            doc.cells.len()
        )
    })?;
    // Group drawable columns by prefix; BTreeMap keeps panel order
    // stable (faas, mem, pool, registry).
    type PanelSeries<'a> = Vec<(&'a str, Vec<(f64, f64)>)>;
    let mut groups: BTreeMap<&str, PanelSeries> = BTreeMap::new();
    let mut blame: PanelSeries = Vec::new();
    let mut anatomy: PanelSeries = Vec::new();
    for (name, values) in &cell.columns {
        let points: Vec<(f64, f64)> = cell
            .t_secs
            .iter()
            .zip(values)
            .filter(|(t, v)| t.is_finite() && v.is_finite())
            .map(|(&t, &v)| (t, v))
            .collect();
        if points.len() < 2 {
            continue; // svg::lines needs two points per series
        }
        if BLAME_COLUMNS.contains(&name.as_str()) {
            blame.push((name, points.clone()));
        }
        if ANATOMY_COLUMNS.contains(&name.as_str()) {
            anatomy.push((name, points.clone()));
        }
        let prefix = name.split('.').next().unwrap_or(name.as_str());
        groups.entry(prefix).or_default().push((name, points));
    }
    if groups.is_empty() {
        return Err(format!(
            "cell {cell_index} has no series with two or more finite points"
        ));
    }
    let mut panels: Vec<String> = groups
        .iter()
        .map(|(prefix, series)| {
            svg::lines(
                &format!("{} [{}] — {prefix}.*", doc.grid, cell.label),
                "sim seconds",
                "value",
                series,
            )
        })
        .collect();
    if !blame.is_empty() {
        panels.push(svg::lines(
            &format!("{} [{}] — blame breakdown", doc.grid, cell.label),
            "sim seconds",
            "value",
            &blame,
        ));
    }
    if !anatomy.is_empty() {
        panels.push(svg::lines(
            &format!("{} [{}] — memory anatomy", doc.grid, cell.label),
            "sim seconds",
            "bytes",
            &anatomy,
        ));
    }
    Ok(svg::stack_vertical(&panels))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "schema_version": 1,
        "grid": "fig12_main_eval",
        "quick": true,
        "interval_us": 1000000,
        "cells": [
            {"trace": "azure", "bench": "json", "config": "default", "policy": "FaaSMem",
             "t_us": [0, 1000000, 2000000],
             "series": {"faas.warm": [0, 1, 2],
                        "mem.local_pages": [10, null, 8],
                        "pool.in_flight": [0, 0, 1],
                        "registry.cold_starts": [1, null, null]}},
            {"trace": "azure", "bench": "web", "config": "default", "policy": "FaaSMem",
             "t_us": [], "series": {}}
        ]
    }"#;

    #[test]
    fn parses_cells_columns_and_null_gaps() {
        let doc = parse_series(SAMPLE).unwrap();
        assert_eq!(doc.grid, "fig12_main_eval");
        assert_eq!(doc.cells.len(), 2);
        let cell = &doc.cells[0];
        assert_eq!(cell.label, "azure/json/default/FaaSMem");
        assert_eq!(cell.t_secs, [0.0, 1.0, 2.0]);
        let (_, local) = cell
            .columns
            .iter()
            .find(|(n, _)| n == "mem.local_pages")
            .unwrap();
        assert_eq!(local[0], 10.0);
        assert!(local[1].is_nan(), "null gap decodes to NaN");
        assert!(doc.cells[1].columns.is_empty());
    }

    #[test]
    fn parse_rejects_non_series_documents() {
        assert!(parse_series("{}").unwrap_err().contains("grid"));
        assert!(parse_series("not json").is_err());
        let ragged = r#"{"grid":"g","cells":[{"t_us":[0,1],"series":{"x":[1]}}]}"#;
        assert!(parse_series(ragged)
            .unwrap_err()
            .contains("1 values for 2 ticks"));
    }

    #[test]
    fn dashboard_groups_panels_by_prefix() {
        let doc = parse_series(SAMPLE).unwrap();
        let svg = render_dashboard(&doc, 0).unwrap();
        // faas, mem and pool each have >= 2 finite points; the registry
        // column has only one and is dropped, so three panels stack.
        for needle in ["faas.*", "mem.*", "pool.*"] {
            assert!(svg.contains(needle), "missing panel {needle}");
        }
        assert!(!svg.contains("registry.*"));
        // No BLAME_COLUMNS in the sample, so no blame panel either.
        assert!(!svg.contains("blame breakdown"));
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
    }

    #[test]
    fn blame_gauges_get_their_own_panel() {
        let doc = parse_series(
            r#"{"grid":"disc09_tail_blame","cells":[
                {"trace":"high-bursty","bench":"bert","config":"none","policy":"FaaSMem",
                 "t_us":[0,1000000,2000000],
                 "series":{"faas.invocations_stalled_remote":[0,3,1],
                           "pool.breaker_open":[0,1,0],
                           "mem.local_pages":[5,6,7]}}]}"#,
        )
        .unwrap();
        let svg = render_dashboard(&doc, 0).unwrap();
        assert!(svg.contains("blame breakdown"));
        // The gauges still appear in their prefix panels too.
        assert!(svg.contains("faas.*"));
        assert!(svg.contains("pool.*"));
        assert!(svg.contains("mem.*"));
    }

    #[test]
    fn anatomy_gauges_get_their_own_panel() {
        let doc = parse_series(
            r#"{"grid":"disc10_memory_anatomy","cells":[
                {"trace":"middle","bench":"bert","config":"mirror2","policy":"FaaSMem",
                 "t_us":[0,1000000,2000000],
                 "series":{"mem.keepalive_idle_bytes":[0,4096,8192],
                           "mem.active_bytes":[8192,4096,0],
                           "pool.redundant_bytes":[0,0,4096],
                           "pool.repair_backlog_bytes":[0,0,0],
                           "faas.warm":[0,1,1]}}]}"#,
        )
        .unwrap();
        let svg = render_dashboard(&doc, 0).unwrap();
        assert!(svg.contains("memory anatomy"));
        assert!(!svg.contains("blame breakdown"), "no blame gauges here");
        // The gauges still appear in their prefix panels too.
        assert!(svg.contains("mem.*"));
        assert!(svg.contains("pool.*"));
    }

    #[test]
    fn dashboard_rejects_undrawable_cells() {
        let doc = parse_series(SAMPLE).unwrap();
        assert!(render_dashboard(&doc, 1)
            .unwrap_err()
            .contains("finite points"));
        assert!(render_dashboard(&doc, 9)
            .unwrap_err()
            .contains("out of range"));
    }
}
