//! §6.5 Characterization: board-area accounting and switch-latch
//! retention on the 6×6 cm prototype.
//!
//! "Solar panels occupy 700 mm², the Capybara power system circuits occupy
//! 640 mm², and one reconfiguration switch occupies 80 mm² … the switch
//! uses a 4.7 µF latch capacitor and retains state for approximately
//! 3 minutes."
//!
//! The two characterization blocks are the points of a typed
//! [`capy_bench::figures::CharItem`] sweep axis run in parallel by
//! `capy_bench::figures::char_area_sweep`; the printed blocks are
//! identical for any worker count.

use capy_bench::figures::char_area_sweep;
use capy_bench::{figure_header, sweep_footer};

fn main() {
    figure_header("Section 6.5", "prototype characterization");
    let (report, blocks) = char_area_sweep(0);
    for (i, block) in blocks.iter().enumerate() {
        if i > 0 {
            println!();
        }
        for line in block {
            println!("{line}");
        }
    }
    sweep_footer(&report);
}
