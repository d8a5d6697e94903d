//! The paper's claims as data, and the one function that judges a claim
//! against a measured [`Table`]. The paper's buildings cannot be obtained,
//! so an absolute value is a [`Claim::Reference`] — shown beside the
//! measured cell, never asserted — and everything else is a relation between
//! cells of one table that holds or is reported as not reproduced.

use crate::report::Table;

/// One statement of the paper about one experiment's table. Rows and
/// columns are named by their labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Claim {
    /// `(row, column, paper)`: a value the paper reports, shown beside the
    /// measured cell. Never asserted.
    Reference(&'static str, &'static str, &'static str),
    /// `(row, column, paper, why not)`: the cell equals the paper's number;
    /// the last field is the known reason when it cannot.
    Equals(&'static str, &'static str, f32, &'static str),
    /// `(row, column)`: the row has the lowest value of the column among the
    /// rows of its group (those sharing its label's part before `/`, or all).
    Lowest(&'static str, &'static str),
    /// `(row, column)`: the row has the highest value among its group.
    Highest(&'static str, &'static str),
    /// `(column, rows)`: the column's values ascend over the rows as listed.
    Ascending(&'static str, &'static [&'static str]),
    /// `(row, below, above)`: in the row, column `below` is under `above`.
    ColumnBelow(&'static str, &'static str, &'static str),
    /// `(paper optimum, rows, columns)`: the smallest cell of the grid lies in
    /// one of the rows and one of the columns (an empty list admits any).
    GridMinimumIn(
        &'static str,
        &'static [&'static str],
        &'static [&'static str],
    ),
    /// `(floor)`: some column is at or under `floor` in one row and above it
    /// in another (an access point one phone sees and another does not).
    PartlyMissing(f32),
}

/// How a claim fared against a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A [`Claim::Reference`]: reported, not judged.
    Reference,
    /// The relation holds in the measured table.
    Holds,
    /// It does not (or the table lacks a cell the claim names).
    NotReproduced,
}

impl Outcome {
    /// The wording `REPRODUCTION.md` uses.
    pub fn name(&self) -> &'static str {
        match self {
            Outcome::Reference => "reference, not asserted",
            Outcome::Holds => "holds",
            Outcome::NotReproduced => "**not reproduced**",
        }
    }
}

/// A judged claim: what was claimed, how it fared, and the numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The claim in words.
    pub statement: String,
    /// Whether it holds.
    pub outcome: Outcome,
    /// The measured (and, for references, the paper's) numbers behind it.
    pub numbers: String,
}

impl Claim {
    /// The claim in words.
    pub fn statement(&self) -> String {
        match *self {
            Claim::Reference(row, column, _) => format!("{row}: {column}"),
            Claim::Equals(row, column, paper, _) => format!("{row}: {column} is {paper}"),
            Claim::Lowest(row, column) => format!("{row} has the lowest {column}"),
            Claim::Highest(row, column) => format!("{row} has the highest {column}"),
            Claim::Ascending(column, rows) => format!("{column}: {}", rows.join(" < ")),
            Claim::ColumnBelow(row, below, above) => format!("{row}: {below} is below {above}"),
            Claim::GridMinimumIn(paper, rows, columns) => {
                let named = [rows, columns].map(|names| names.join(" or "));
                let place = named.iter().filter(|n| !n.is_empty());
                let place = place.cloned().collect::<Vec<_>>().join(", ");
                format!("the lowest error lies in {place} (paper optimum: {paper})")
            }
            Claim::PartlyMissing(floor) => {
                format!("some column is missing (≤ {floor}) in one row and visible in another")
            }
        }
    }

    /// Judges the claim against `table`. A claim naming a row or column the
    /// table lacks is not reproduced by that table.
    pub fn evaluate(&self, table: &Table) -> Verdict {
        let measured = self.measure(table);
        let outcome = match measured {
            Some(_) if matches!(self, Claim::Reference(..)) => Outcome::Reference,
            Some((true, _)) => Outcome::Holds,
            _ => Outcome::NotReproduced,
        };
        let missing = || "the table has no such row or column".to_string();
        Verdict {
            statement: self.statement(),
            outcome,
            numbers: measured.map_or_else(missing, |(_, numbers)| numbers),
        }
    }

    /// Whether the relation holds, and the numbers that decide it.
    fn measure(&self, table: &Table) -> Option<(bool, String)> {
        Some(match *self {
            Claim::Reference(row, column, paper) => {
                let measured = table.value(row, column)?;
                (true, format!("paper {paper}; measured {measured:.3}"))
            }
            Claim::Equals(row, column, paper, why_not) => {
                let measured = table.value(row, column)?;
                let numbers = format!("measured {measured} vs paper {paper}");
                let excused = format!("{numbers} ({why_not})");
                let holds = measured == paper;
                (holds, if holds { numbers } else { excused })
            }
            Claim::Lowest(row, column) | Claim::Highest(row, column) => {
                table.value(row, column)?;
                // Compared within a per-building grid's building, or all rows.
                let group = |label: &str| label.split_once('/').map(|(g, _)| g.to_string());
                let labels = table.rows.iter().map(|r| r.label.as_str());
                let ranked = ranked(table, labels.filter(|l| group(l) == group(row)), column);
                let extreme = match self {
                    Claim::Lowest(..) => ranked.first()?,
                    _ => ranked.last()?,
                };
                (extreme.0 == row, chain(&ranked))
            }
            Claim::Ascending(column, rows) => {
                let ranked = ranked(table, rows.iter().copied(), column);
                let as_listed = ranked.iter().map(|(r, _)| r).eq(rows.iter());
                (as_listed, chain(&ranked))
            }
            Claim::ColumnBelow(row, below, above) => {
                let (b, a) = (table.value(row, below)?, table.value(row, above)?);
                (b < a, format!("{below} {b:.3} vs {above} {a:.3}"))
            }
            Claim::GridMinimumIn(_, rows, columns) => {
                let cells = table.rows.iter().flat_map(|r| {
                    let cells = table.columns.iter().zip(&r.values);
                    cells.map(move |(c, &v)| (r.label.as_str(), c.as_str(), v))
                });
                let finite = cells.filter(|(_, _, v)| v.is_finite());
                let (row, column, value) = finite.min_by(|a, b| a.2.total_cmp(&b.2))?;
                let admits = |names: &[&str], name| names.is_empty() || names.contains(&name);
                let numbers = format!("lowest is {value:.3} at {row} / {column}");
                (admits(rows, row) && admits(columns, column), numbers)
            }
            Claim::PartlyMissing(floor) => {
                let column = |i| {
                    table
                        .rows
                        .iter()
                        .filter_map(move |r| r.values.get(i).copied())
                };
                let low = |i| column(i).fold(f32::MAX, f32::min);
                let high = |i| column(i).fold(f32::MIN, f32::max);
                let count = table.columns.len();
                let partly = (0..count).filter(|&i| low(i) <= floor && high(i) > floor);
                let widest = (0..count).map(|i| high(i) - low(i)).fold(0.0, f32::max);
                let spread = format!("largest spread within one column {widest:.1}");
                let partly = partly.count();
                (partly > 0, format!("{partly} of {count} columns; {spread}"))
            }
        })
    }
}

/// (`row`, value of `column`) for each of `rows` with a finite value,
/// ascending. A row the table lacks sorts nowhere, so a claim naming it
/// cannot hold.
fn ranked<'t>(
    table: &Table,
    rows: impl Iterator<Item = &'t str>,
    column: &str,
) -> Vec<(&'t str, f32)> {
    let cells = rows.filter_map(|row| Some((row, table.value(row, column)?)));
    let mut ranked: Vec<(&str, f32)> = cells.filter(|(_, v)| v.is_finite()).collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
    ranked
}

fn chain(ranked: &[(&str, f32)]) -> String {
    let cells: Vec<String> = ranked.iter().map(|(r, v)| format!("{r} {v:.3}")).collect();
    cells.join(" < ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig8_like() -> Table {
        let mut table = Table::new(["mean (m)", "max (m)"]);
        table.push("VITAL", vec![0.476, 10.0]);
        table.push("SHERPA", vec![0.338, 6.0]);
        table.push("WiDeep", vec![2.449, 22.0]);
        table
    }

    #[test]
    fn vital_second_is_not_reproduced_with_both_numbers() {
        let verdict = Claim::Lowest("VITAL", "mean (m)").evaluate(&fig8_like());
        assert_eq!(verdict.outcome, Outcome::NotReproduced);
        assert_eq!(verdict.statement, "VITAL has the lowest mean (m)");
        assert_eq!(verdict.numbers, "SHERPA 0.338 < VITAL 0.476 < WiDeep 2.449");
    }

    #[test]
    fn orderings_and_extremes_are_judged_on_the_named_column() {
        let table = fig8_like();
        let holds = |claim: Claim| claim.evaluate(&table).outcome == Outcome::Holds;
        assert!(holds(Claim::Highest("WiDeep", "mean (m)")));
        let rows = &["SHERPA", "VITAL", "WiDeep"];
        assert!(holds(Claim::Ascending("max (m)", rows)));
        let rows = &["VITAL", "SHERPA", "WiDeep"];
        assert!(!holds(Claim::Ascending("mean (m)", rows)));
        assert!(holds(Claim::ColumnBelow("VITAL", "mean (m)", "max (m)")));
        // A row the table lacks is "not reproduced", never a pass.
        let missing = Claim::Lowest("ANVIL", "mean (m)").evaluate(&table);
        assert_eq!(missing.outcome, Outcome::NotReproduced);
        assert!(missing.numbers.contains("no such row"));
    }

    #[test]
    fn references_are_reported_and_never_judged() {
        let table = fig8_like();
        let verdict = Claim::Reference("VITAL", "mean (m)", "1.18").evaluate(&table);
        assert_eq!(verdict.outcome, Outcome::Reference);
        assert_eq!(verdict.numbers, "paper 1.18; measured 0.476");
        let exact = Claim::Equals("VITAL", "max (m)", 12.0, "widths unspecified").evaluate(&table);
        assert_eq!(exact.outcome, Outcome::NotReproduced);
        assert_eq!(
            exact.numbers,
            "measured 10 vs paper 12 (widths unspecified)"
        );
    }

    #[test]
    fn grids_group_rows_by_building_and_find_their_minimum() {
        let mut grid = Table::new(["BLU", "all"]);
        grid.push("Building 1/VITAL", vec![0.2, 0.4]);
        grid.push("Building 1/SHERPA", vec![0.5, 0.5]);
        grid.push("Building 2/VITAL", vec![0.9, f32::NAN]);
        grid.push("Building 2/SHERPA", vec![0.1, 0.3]);
        let outcome = |claim: Claim| claim.evaluate(&grid).outcome;
        let lowest = |row| Claim::Lowest(row, "all");
        assert_eq!(outcome(lowest("Building 1/VITAL")), Outcome::Holds);
        assert_eq!(outcome(lowest("Building 2/VITAL")), Outcome::NotReproduced);
        let minimum = Claim::GridMinimumIn("n/a", &[], &["BLU"]).evaluate(&grid);
        assert_eq!(minimum.outcome, Outcome::Holds);
        assert_eq!(
            minimum.numbers,
            "lowest is 0.100 at Building 2/SHERPA / BLU"
        );
    }

    #[test]
    fn a_column_missing_on_one_row_only_is_found() {
        let mut rssi = Table::new(["AP0", "AP1"]);
        rssi.push("HTC", vec![-60.0, -100.0]);
        rssi.push("S7", vec![-61.0, -99.5]);
        rssi.push("IPHONE", vec![-52.0, -90.0]);
        let missing = Claim::PartlyMissing(-99.0).evaluate(&rssi);
        assert_eq!(missing.outcome, Outcome::Holds);
        assert!(missing.numbers.starts_with("1 of 2 columns"));
    }
}
