//! Columnar (struct-of-arrays) time-series storage.
//!
//! A [`TimeSeries`] holds one shared tick axis (sim-time microseconds)
//! and any number of named `f64` columns. The structural invariant —
//! every column is exactly as long as the tick axis — is maintained by
//! construction: a column first seen mid-run is backfilled with NaN
//! for the rows it missed, and columns absent from a row get NaN for
//! that row. NaN serialises as JSON `null`, so gaps survive export.

use faasmem_trace::json::JsonValue;

/// One named column of samples.
#[derive(Debug, Clone, PartialEq)]
struct Column {
    name: String,
    values: Vec<f64>,
}

/// A rectangular, columnar time-series: one tick axis, N named f64
/// columns, all the same length. Columns are kept sorted by name so
/// serialisation order never depends on insertion order.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    ticks: Vec<u64>,
    columns: Vec<Column>,
    /// The column index each position of the previous row resolved
    /// to. A sampler emits the same names in the same order row after
    /// row, so `push_row` confirms each guess with one name equality
    /// and binary-searches only on a miss. An inserted column shifts
    /// the indices after it; a guess it made stale fails the name check
    /// like any other miss. Not part of equality.
    layout: Vec<usize>,
}

impl PartialEq for TimeSeries {
    fn eq(&self, other: &TimeSeries) -> bool {
        self.ticks == other.ticks && self.columns == other.columns
    }
}

impl TimeSeries {
    /// An empty series with no ticks and no columns.
    pub fn new() -> TimeSeries {
        TimeSeries::default()
    }

    /// Number of rows (ticks) recorded.
    pub fn len(&self) -> usize {
        self.ticks.len()
    }

    /// Whether no rows have been recorded.
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty()
    }

    /// The tick axis, in sim-time microseconds.
    pub fn ticks(&self) -> &[u64] {
        &self.ticks
    }

    /// Column names, in the (sorted) serialisation order.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|c| c.name.as_str())
    }

    /// The samples of one column, if it exists.
    pub fn column(&self, name: &str) -> Option<&[f64]> {
        self.columns
            .binary_search_by(|c| c.name.as_str().cmp(name))
            .ok()
            .map(|i| self.columns[i].values.as_slice())
    }

    /// Whether every column is exactly as long as the tick axis. Held
    /// by construction; exposed so property tests can state it.
    pub fn is_rectangular(&self) -> bool {
        self.columns
            .iter()
            .all(|c| c.values.len() == self.ticks.len())
    }

    /// Appends one row at tick `t_us`. Values are `(series name,
    /// sample)` pairs; a name not seen before creates a new column
    /// backfilled with NaN, and existing columns missing from `values`
    /// receive NaN for this row. Duplicate names within one row keep
    /// the last value.
    pub fn push_row<'a>(&mut self, t_us: u64, values: impl IntoIterator<Item = (&'a str, f64)>) {
        self.ticks.push(t_us);
        let rows = self.ticks.len();
        for (pos, (name, v)) in values.into_iter().enumerate() {
            let idx = match self.layout.get(pos) {
                Some(&i) if self.columns[i].name == name => i,
                _ => {
                    let i = self.column_index(name, rows - 1);
                    match self.layout.get_mut(pos) {
                        Some(guess) => *guess = i,
                        None => self.layout.push(i),
                    }
                    i
                }
            };
            let col = &mut self.columns[idx].values;
            if col.len() == rows {
                // Duplicate name within this row: last value wins.
                *col.last_mut().expect("non-empty column") = v;
            } else {
                col.push(v);
            }
        }
        for col in &mut self.columns {
            if col.values.len() < rows {
                col.values.push(f64::NAN);
            }
        }
    }

    /// The index of column `name`, inserted in name order and
    /// backfilled with `backfill` NaNs if it is new.
    fn column_index(&mut self, name: &str, backfill: usize) -> usize {
        match self.columns.binary_search_by(|c| c.name.as_str().cmp(name)) {
            Ok(i) => i,
            Err(i) => {
                self.columns.insert(
                    i,
                    Column {
                        name: name.to_string(),
                        values: vec![f64::NAN; backfill],
                    },
                );
                i
            }
        }
    }

    /// Takes the recorded data out, leaving this series empty. Plain
    /// data only — safe to move across threads after the `Rc`-held
    /// recorder is done with it.
    pub fn take(&mut self) -> TimeSeries {
        std::mem::take(self)
    }

    /// Serialises to `{"t_us": [...], "series": {name: [...]}}`. NaN
    /// samples (structural gaps) become JSON `null`.
    pub fn to_json(&self) -> JsonValue {
        let (t_us, series) = self.json_parts();
        let mut doc = JsonValue::obj();
        doc.push_static("t_us", t_us);
        doc.push_static("series", series);
        doc
    }

    /// The two members of [`to_json`](Self::to_json): the tick array
    /// and the name-ordered column object.
    pub fn json_parts(&self) -> (JsonValue, JsonValue) {
        let t_us = JsonValue::Arr(
            self.ticks
                .iter()
                .map(|&t| JsonValue::Num(t as f64))
                .collect(),
        );
        let mut series = JsonValue::obj();
        for col in &self.columns {
            series.push(
                &col.name,
                JsonValue::Arr(col.values.iter().map(|&v| JsonValue::Num(v)).collect()),
            );
        }
        (t_us, series)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_row_keeps_columns_rectangular() {
        let mut ts = TimeSeries::new();
        ts.push_row(0, [("a", 1.0)]);
        ts.push_row(10, [("a", 2.0), ("b", 3.0)]);
        ts.push_row(20, [("b", 4.0)]);
        assert!(ts.is_rectangular());
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.column("a").unwrap()[1], 2.0);
        assert!(ts.column("a").unwrap()[2].is_nan());
        // Column "b" was born on row 1: row 0 is a NaN backfill.
        assert!(ts.column("b").unwrap()[0].is_nan());
        assert_eq!(ts.column("b").unwrap()[2], 4.0);
    }

    #[test]
    fn columns_serialize_sorted_regardless_of_insertion_order() {
        let mut ts = TimeSeries::new();
        ts.push_row(0, [("zeta", 1.0), ("alpha", 2.0), ("mid", 3.0)]);
        let names: Vec<&str> = ts.column_names().collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
        let json = ts.to_json().to_compact();
        let a = json.find("alpha").unwrap();
        let m = json.find("mid").unwrap();
        let z = json.find("zeta").unwrap();
        assert!(a < m && m < z, "{json}");
    }

    #[test]
    fn duplicate_name_in_row_keeps_last_value() {
        let mut ts = TimeSeries::new();
        ts.push_row(0, [("a", 1.0), ("a", 9.0)]);
        assert!(ts.is_rectangular());
        assert_eq!(ts.column("a").unwrap(), [9.0]);
    }

    #[test]
    fn nan_gaps_export_as_null() {
        let mut ts = TimeSeries::new();
        ts.push_row(0, [("a", 1.0)]);
        ts.push_row(5, [("b", 2.0)]);
        let json = ts.to_json().to_compact();
        assert!(json.contains("[1,null]"), "{json}");
        assert!(json.contains("[null,2]"), "{json}");
    }

    // Under any interleaving of row pushes (with arbitrary column
    // subsets per row) and flushes, every live snapshot stays
    // rectangular: all columns exactly as long as the tick axis.
    proptest::proptest! {
        #[test]
        fn prop_columns_stay_equal_length_under_interleaved_sample_flush(
            ops in proptest::collection::vec((0u8..5, 0u8..16), 0..60),
        ) {
            const NAMES: [&str; 4] = ["c0", "c1", "c2", "c3"];
            let mut ts = TimeSeries::new();
            let mut tick = 0u64;
            for (op, subset) in ops {
                if op == 4 {
                    let taken = ts.take();
                    proptest::prop_assert!(taken.is_rectangular());
                    proptest::prop_assert!(ts.is_empty());
                    tick = 0;
                } else {
                    let row = NAMES
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| subset & (1 << i) != 0)
                        .map(|(i, name)| (*name, i as f64));
                    ts.push_row(tick, row);
                    tick += 1;
                }
                proptest::prop_assert!(ts.is_rectangular());
                for name in NAMES {
                    if let Some(col) = ts.column(name) {
                        proptest::prop_assert_eq!(col.len(), ts.len());
                    }
                }
            }
        }
    }

    /// `push_row` as it was before the remembered layout: a binary
    /// search per value. The oracle for the layout fast path.
    fn reference_push_row(ts: &mut TimeSeries, t_us: u64, values: &[(&str, f64)]) {
        let backfill = ts.ticks.len();
        ts.ticks.push(t_us);
        for &(name, v) in values {
            let idx = match ts.columns.binary_search_by(|c| c.name.as_str().cmp(name)) {
                Ok(i) => i,
                Err(i) => {
                    ts.columns.insert(
                        i,
                        Column {
                            name: name.to_string(),
                            values: vec![f64::NAN; backfill],
                        },
                    );
                    i
                }
            };
            let col = &mut ts.columns[idx].values;
            if col.len() == ts.ticks.len() {
                *col.last_mut().expect("non-empty column") = v;
            } else {
                col.push(v);
            }
        }
        for col in &mut ts.columns {
            if col.values.len() < ts.ticks.len() {
                col.values.push(f64::NAN);
            }
        }
    }

    /// Same ticks, same column names, bitwise-equal samples (NaN gaps
    /// included, which `==` cannot see).
    fn same_bits(a: &TimeSeries, b: &TimeSeries) -> bool {
        a.ticks == b.ticks
            && a.columns.len() == b.columns.len()
            && a.columns.iter().zip(&b.columns).all(|(x, y)| {
                x.name == y.name
                    && x.values.len() == y.values.len()
                    && x.values
                        .iter()
                        .zip(&y.values)
                        .all(|(p, q)| p.to_bits() == q.to_bits())
            })
    }

    #[test]
    fn equality_ignores_the_remembered_layout() {
        // The same two rows, named in opposite orders: equal data,
        // different remembered layouts.
        let mut a = TimeSeries::new();
        let mut b = TimeSeries::new();
        for t in [0, 10] {
            a.push_row(t, [("x", 1.0), ("y", 2.0)]);
            b.push_row(t, [("y", 2.0), ("x", 1.0)]);
        }
        assert_eq!(a.layout, [0, 1]);
        assert_eq!(b.layout, [1, 0]);
        assert_eq!(a, b);
    }

    #[test]
    fn layout_follows_the_latest_row() {
        let mut ts = TimeSeries::new();
        ts.push_row(0, [("x", 1.0), ("y", 2.0)]);
        assert_eq!(ts.layout, [0, 1]);
        ts.push_row(1, [("y", 3.0), ("x", 4.0), ("x", 5.0)]);
        assert_eq!(ts.layout, [1, 0, 0]);
        // "a" sorts first: it shifts x and y, and the stale guesses for
        // positions 1 and 2 are corrected on the way.
        ts.push_row(2, [("a", 6.0), ("x", 7.0), ("y", 8.0)]);
        assert_eq!(ts.layout, [0, 1, 2]);
        assert_eq!(ts.column("x").unwrap(), [1.0, 5.0, 7.0]);
        assert_eq!(ts.column("y").unwrap(), [2.0, 3.0, 8.0]);
    }

    // The remembered layout is invisible: any row sequence — mostly
    // repeats of the previous row, as a sampler emits, with columns
    // added, dropped, reordered and duplicated, and with `take()`
    // mid-run — builds bit-for-bit what the binary-search-per-value
    // `push_row` builds.
    proptest::proptest! {
        #[test]
        fn prop_remembered_layout_matches_reference_push_row(
            ops in proptest::collection::vec((0u8..10, 0usize..12, 0usize..12, 0.0f64..100.0), 0..80),
        ) {
            const NAMES: [&str; 12] = [
                "a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l",
            ];
            let mut ts = TimeSeries::new();
            let mut reference = TimeSeries::new();
            let mut row: Vec<(&str, f64)> = Vec::new();
            let mut tick = 0u64;
            for (op, x, y, v) in ops {
                match op {
                    // Drop one column from the row.
                    4 if !row.is_empty() => {
                        row.remove(x % row.len());
                    }
                    // Add a column (possibly new to the series).
                    5 => row.insert(x % (row.len() + 1), (NAMES[y], v)),
                    // Reorder: swap two positions.
                    6 if !row.is_empty() => {
                        let n = row.len();
                        row.swap(x % n, y % n);
                    }
                    // Duplicate a name within the row.
                    7 if !row.is_empty() => {
                        let dup = (row[x % row.len()].0, v);
                        row.insert(y % (row.len() + 1), dup);
                    }
                    8 => {
                        let taken = ts.take();
                        let taken_ref = reference.take();
                        proptest::prop_assert!(same_bits(&taken, &taken_ref));
                        tick = 0;
                        continue;
                    }
                    // A fresh row in a new order.
                    9 => {
                        row = (0..x % 6).map(|i| (NAMES[(y + 5 * i) % 12], v + i as f64)).collect();
                    }
                    // Repeat the row with new values.
                    _ => {
                        for (i, entry) in row.iter_mut().enumerate() {
                            entry.1 = v + i as f64;
                        }
                    }
                }
                ts.push_row(tick, row.iter().copied());
                reference_push_row(&mut reference, tick, &row);
                tick += 1;
                proptest::prop_assert!(same_bits(&ts, &reference));
                proptest::prop_assert!(ts.is_rectangular());
            }
        }
    }

    #[test]
    fn take_leaves_empty_series() {
        let mut ts = TimeSeries::new();
        ts.push_row(0, [("a", 1.0)]);
        let taken = ts.take();
        assert_eq!(taken.len(), 1);
        assert!(ts.is_empty());
        assert_eq!(ts.column_names().count(), 0);
    }
}
