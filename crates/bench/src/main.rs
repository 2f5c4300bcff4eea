//! Runs one of the paper's experiments, named by the first argument:
//!
//! ```text
//! zoom-bench <table1…table7|fig2|fig5|fig6|fig8|fig10|fig11|fig13…fig17|ablations|all>
//!            [--seed N] [--minutes M] [--scale D] [--background R] [--out DIR]
//! ```
//!
//! Each experiment starts from its own defaults (`harness::ExpArgs::parse`);
//! `table1`, `table5` and `table7` take no arguments. `all` runs every
//! table and figure, sharing one campus run between the campus tables and
//! figures. A command line it cannot parse exits 2 with the usage line; an
//! experiment that cannot run on its arguments exits 1.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use zoom_bench::figures::{self, capture_experiment};
use zoom_bench::harness::{run_campus, usage, ExpArgs};
use zoom_bench::{ablations, tables};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (name, args) = match ExpArgs::parse(&argv) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: zoom-bench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(name, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(name: &str, args: &ExpArgs) -> Result<(), String> {
    match name {
        "table1" => tables::table1(),
        "table2" => tables::table2(&run_campus(args)?),
        "table3" => tables::table3(&run_campus(args)?),
        "table4" => tables::table4(&run_campus(args)?),
        "table5" => tables::table5(),
        "table6" => tables::table6(&run_campus(args)?, args),
        "table7" => tables::table7(),
        "fig2" => figures::fig2(args),
        "fig5" => figures::fig5(args),
        "fig6" => figures::fig6(args),
        "fig8" => figures::fig8(args),
        "fig10" => figures::fig10(args),
        "fig11" => figures::fig11(args),
        "fig13" => figures::fig13(&capture_experiment(args)?),
        "fig14" => figures::fig14(&run_campus(args)?, args),
        "fig15" => figures::fig15(&run_campus(args)?, args),
        "fig16" => figures::fig16(&run_campus(args)?, args),
        "fig17" => figures::fig17(&capture_experiment(args)?, args),
        "ablations" => {
            ablations::grouping_without_step1(args);
            println!();
            ablations::jitter_packet_vs_frame(args);
            println!();
            ablations::p2p_timeout_sweep(args);
        }
        "all" => all(args)?,
        _ => unreachable!("ExpArgs::parse admits only the EXPERIMENTS names"),
    }
    Ok(())
}

fn section(name: &str) {
    println!("\n{}\n# {name}\n{}", "#".repeat(70), "#".repeat(70));
}

/// Every table and figure, with one shared campus run where possible.
fn all(args: &ExpArgs) -> Result<(), String> {
    section("Table 1");
    tables::table1();
    section("Table 5");
    tables::table5();
    section("Table 7 / Appendix B");
    tables::table7();

    section("Campus run (shared by Tables 2/3/4/6 and Figs. 14/15/16)");
    let analyzer = run_campus(args)?;
    section("Table 2");
    tables::table2(&analyzer);
    section("Table 3");
    tables::table3(&analyzer);
    section("Table 4");
    tables::table4(&analyzer);
    section("Table 6");
    tables::table6(&analyzer, args);
    section("Figure 14");
    figures::fig14(&analyzer, args);
    section("Figure 15");
    figures::fig15(&analyzer, args);
    section("Figure 16");
    figures::fig16(&analyzer, args);

    section("Figure 2");
    figures::fig2(args);
    section("Figures 3-5");
    figures::fig5(args);
    section("Figure 6");
    figures::fig6(args);
    section("Figures 8/9");
    figures::fig8(args);
    section("Figure 10");
    figures::fig10(args);
    section("Figure 11");
    figures::fig11(args);
    // The capture experiments carry ~14 background packets per Zoom
    // packet; run them on a shorter, denser window so the Zoom stages
    // see traffic without exploding the packet budget.
    let cap_args = ExpArgs {
        minutes: args.minutes.min(30),
        scale_denom: args.scale_denom.min(4.0),
        background_ratio: if args.background_ratio > 0.0 {
            args.background_ratio
        } else {
            13.6
        },
        ..args.clone()
    };
    section("Figures 13 and 17 (one shared capture run)");
    let capture = capture_experiment(&cap_args)?;
    figures::fig13(&capture);
    figures::fig17(&capture, &cap_args);
    println!(
        "\nAll experiments completed; CSV artifacts in {}",
        args.out_dir.display()
    );
    Ok(())
}
