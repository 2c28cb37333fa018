//! §6.6 CapySat case study: eligibility, booster feasibility, area, and
//! orbits of dual-MCU activity.
//!
//! The four case-study sections are the points of a typed
//! [`capy_bench::figures::CaseItem`] sweep axis run in parallel by
//! `capy_bench::figures::capysat_sweep`; the orbit loop's sample and
//! beacon tallies land in the standard `RunSummary` the footer totals.
//! The printed sections are identical for any worker count.

use capy_bench::figures::capysat_sweep;
use capy_bench::{figure_header, sweep_footer};

fn main() {
    figure_header("Section 6.6", "CapySat case study");
    let (report, sections) = capysat_sweep(2, 0);
    for section in &sections {
        for line in section {
            println!("{line}");
        }
    }
    sweep_footer(&report);
}
