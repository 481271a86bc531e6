//! Integration tests of the `srank` CLI, driven through the library entry
//! points (no subprocess spawning).

use srank_cli::{execute_on, parse, Command};
use srank_data::{read_csv_str, ColumnSpec};

const HIRING_CSV: &str = "\
candidate,aptitude,experience
t1,0.63,0.71
t2,0.83,0.65
t3,0.58,0.78
t4,0.70,0.68
t5,0.53,0.82
";

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(|p| p.to_string()).collect()
}

fn table() -> srank_data::RawTable {
    read_csv_str(
        "hiring",
        HIRING_CSV,
        &[
            ColumnSpec::higher("aptitude"),
            ColumnSpec::higher("experience"),
        ],
    )
    .unwrap()
}

#[test]
fn parse_rejects_garbage() {
    assert!(parse(&args("frobnicate data.csv --higher a")).is_err());
    assert!(parse(&args("verify data.csv --higher a")).is_err()); // no --weights
    assert!(parse(&args("inspect data.csv")).is_err()); // no columns
    assert!(parse(&args("inspect")).is_err()); // no csv
    assert!(parse(&args("inspect data.csv --higher a --bogus 3")).is_err());
}

#[test]
fn parse_collects_options() {
    let inv = parse(&args(
        "topk data.csv --higher a,b --lower c -k 7 --ranked --budget 900 --calls 3 \
         --around 1,1,1 --theta 0.05 --seed 9",
    ))
    .unwrap();
    assert_eq!(inv.higher, vec!["a", "b"]);
    assert_eq!(inv.lower, vec!["c"]);
    assert_eq!(inv.around, Some(vec![1.0, 1.0, 1.0]));
    assert_eq!(inv.theta, Some(0.05));
    assert_eq!(inv.seed, 9);
    assert_eq!(
        inv.command,
        Command::TopK {
            k: 7,
            ranked: true,
            budget: 900,
            calls: 3
        }
    );
}

#[test]
fn inspect_reports_stats() {
    let inv = parse(&args("inspect hiring.csv --higher aptitude,experience")).unwrap();
    let out = execute_on(&inv, &table()).unwrap();
    assert!(out.contains("5 rows"));
    assert!(out.contains("aptitude"));
    assert!(out.contains("dominance fraction"));
    // Figure 1's items are mutually non-dominating.
    assert!(out.contains("0.0000"));
}

#[test]
fn verify_is_exact_in_2d() {
    let inv = parse(&args(
        "verify hiring.csv --higher aptitude,experience --weights 1,1",
    ))
    .unwrap();
    let out = execute_on(&inv, &table()).unwrap();
    assert!(out.contains("exact (2-D interval)"), "{out}");
    // The CLI normalizes the CSV columns; compute the expected value the
    // same way through the library.
    use srank_core::prelude::*;
    let data = Dataset::from_rows(&table().normalized()).unwrap();
    let r = data.rank(&[1.0, 1.0]).unwrap();
    let expected = stability_verify_2d(&data, &r, AngleInterval::full())
        .unwrap()
        .unwrap()
        .stability;
    assert!(
        out.contains(&format!("{expected:.6}")),
        "{out} vs {expected}"
    );
}

#[test]
fn enumerate_lists_all_eleven() {
    let inv = parse(&args(
        "enumerate hiring.csv --higher aptitude,experience --top 20",
    ))
    .unwrap();
    let out = execute_on(&inv, &table()).unwrap();
    assert!(
        out.contains("(11 feasible rankings in the region) [exact]"),
        "{out}"
    );
    assert!(out.contains("#1 "));
    assert!(out.contains("#11"));
}

#[test]
fn enumerate_with_threshold() {
    let inv = parse(&args(
        "enumerate hiring.csv --higher aptitude,experience --min-stability 0.1",
    ))
    .unwrap();
    let out = execute_on(&inv, &table()).unwrap();
    // Expected count computed through the library on the same normalized
    // data the CLI ranks.
    use srank_core::prelude::*;
    let data = Dataset::from_rows(&table().normalized()).unwrap();
    let mut e = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
    let expected = e.with_stability_at_least(0.1).len();
    let listed = out.matches("\n#").count() + usize::from(out.starts_with('#'));
    assert_eq!(listed, expected, "{out}");
    assert!(
        expected >= 2,
        "threshold test needs a few qualifying regions"
    );
}

#[test]
fn topk_runs_deterministically() {
    let inv = parse(&args(
        "topk hiring.csv --higher aptitude,experience -k 3 --budget 2000 --calls 2 --seed 5",
    ))
    .unwrap();
    let a = execute_on(&inv, &table()).unwrap();
    let b = execute_on(&inv, &table()).unwrap();
    assert_eq!(a, b);
    assert!(a.contains("top-3 sets"));
    assert!(a.contains("items"));
}

#[test]
fn overview_reports_coverage() {
    let inv = parse(&args("overview hiring.csv --higher aptitude,experience")).unwrap();
    let out = execute_on(&inv, &table()).unwrap();
    assert!(out.contains("11 feasible rankings"), "{out}");
    use srank_core::prelude::*;
    let data = Dataset::from_rows(&table().normalized()).unwrap();
    let e = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
    let o = StabilityOverview::from_stabilities(e.regions().iter().map(|r| r.stability).collect())
        .unwrap();
    let expected = o.rankings_to_cover(0.5).unwrap();
    assert!(
        out.contains(&format!("50% coverage: top {expected}")),
        "{out}"
    );
}

#[test]
fn cone_roi_flags_work_in_2d() {
    let inv = parse(&args(
        "enumerate hiring.csv --higher aptitude,experience --around 1,1 --theta 0.1 --top 20",
    ))
    .unwrap();
    let out = execute_on(&inv, &table()).unwrap();
    // Fewer rankings fit a narrow interval than the full quadrant.
    let n: usize = out
        .split("(")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .unwrap();
    assert!(n < 11, "{out}");
}

#[test]
fn weight_arity_mismatch_is_reported() {
    let inv = parse(&args(
        "verify hiring.csv --higher aptitude,experience --weights 1,1,1",
    ))
    .unwrap();
    let err = execute_on(&inv, &table()).unwrap_err();
    assert!(err.contains("3 entries"), "{err}");
}

#[test]
fn three_d_verify_uses_girard() {
    let csv = "\
a,b,c
0.8,0.2,0.5
0.3,0.9,0.4
0.5,0.5,0.9
0.9,0.4,0.1
";
    let t = read_csv_str(
        "abc",
        csv,
        &[
            ColumnSpec::higher("a"),
            ColumnSpec::higher("b"),
            ColumnSpec::higher("c"),
        ],
    )
    .unwrap();
    let inv = parse(&args("verify x.csv --higher a,b,c --weights 1,1,1")).unwrap();
    let out = execute_on(&inv, &t).unwrap();
    assert!(out.contains("exact (Girard, d = 3)"), "{out}");
}

#[test]
fn end_to_end_through_filesystem() {
    // Exercise the real file path too.
    let dir = std::env::temp_dir().join("srank_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hiring.csv");
    std::fs::write(&path, HIRING_CSV).unwrap();
    let out = srank_cli::run(&args(&format!(
        "inspect {} --higher aptitude,experience",
        path.display()
    )))
    .unwrap();
    assert!(out.contains("5 rows"));
    std::fs::remove_file(&path).ok();
}

const ABC_CSV: &str = "\
a,b,c
0.81,0.22,0.53
0.35,0.91,0.44
0.52,0.57,0.93
0.93,0.41,0.12
0.64,0.66,0.35
0.18,0.72,0.79
0.47,0.29,0.88
0.76,0.83,0.21
0.29,0.48,0.61
0.58,0.14,0.74
0.69,0.52,0.49
0.12,0.95,0.33
";

fn abc_table() -> srank_data::RawTable {
    read_csv_str(
        "abc",
        ABC_CSV,
        &[
            ColumnSpec::higher("a"),
            ColumnSpec::higher("b"),
            ColumnSpec::higher("c"),
        ],
    )
    .unwrap()
}

#[test]
fn three_d_overview_text_is_pinned() {
    // The text the arrangement-walk overview printed for these seeds,
    // pinned so the counting overview is held to it exactly.
    let full = parse(&args(
        "overview x.csv --higher a,b,c --samples 3000 --seed 7",
    ))
    .unwrap();
    assert_eq!(
        execute_on(&full, &abc_table()).unwrap(),
        "706 feasible rankings; effective number (entropy): 414.6\n\
         \x20   25% coverage: top 29 rankings\n\
         \x20   50% coverage: top 102 rankings\n\
         \x20   75% coverage: top 249 rankings\n\
         \x20   90% coverage: top 434 rankings\n\
         \x20   99% coverage: top 677 rankings\n"
    );
    let cone = parse(&args(
        "overview x.csv --higher a,b,c --samples 3000 --seed 7 --around 1,1,1 --theta 0.3",
    ))
    .unwrap();
    assert_eq!(
        execute_on(&cone, &abc_table()).unwrap(),
        "380 feasible rankings; effective number (entropy): 231.9\n\
         \x20   25% coverage: top 21 rankings\n\
         \x20   50% coverage: top 62 rankings\n\
         \x20   75% coverage: top 133 rankings\n\
         \x20   90% coverage: top 218 rankings\n\
         \x20   99% coverage: top 350 rankings\n"
    );
}
