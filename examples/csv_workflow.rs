//! Bring-your-own-data workflow: CSV in, stability analysis out.
//!
//! The other examples run on simulators; this one shows the path a
//! downstream adopter actually takes — write (or export) a CSV, declare
//! which columns score and in which direction, and run the consumer and
//! producer tools end to end.
//!
//! Run with: `cargo run --release --example csv_workflow`

use stable_rankings::data::{read_csv_str, table_stats, ColumnSpec};
use stable_rankings::prelude::*;

// A laptop-buying shortlist: price is lower-better, the rest higher-better.
const CATALOG: &str = "\
model,price,battery_hours,benchmark,ram_gb
aurora-14,999,12.5,6400,16
nimbus-13,1299,18.0,5900,16
titan-16,1799,9.0,8800,32
breeze-15,849,14.0,5200,8
vertex-14,1499,11.0,7900,32
zephyr-13,1099,16.5,6100,16
";

fn main() {
    // 1. Ingest: name the scoring columns and their directions.
    let spec = [
        ColumnSpec::lower("price"),
        ColumnSpec::higher("battery_hours"),
        ColumnSpec::higher("benchmark"),
        ColumnSpec::higher("ram_gb"),
    ];
    let table = read_csv_str("laptops", CATALOG, &spec).unwrap();
    let names = [
        "aurora-14",
        "nimbus-13",
        "titan-16",
        "breeze-15",
        "vertex-14",
        "zephyr-13",
    ];

    // 2. Inspect before trusting any ranking.
    let stats = table_stats(&table);
    println!(
        "{} laptops; dominance fraction {:.2} —",
        stats.n_rows, stats.dominance_fraction
    );
    println!("  (every dominated model can be discarded before weighing anything)\n");

    // 3. Normalize and rank under a first-guess weighting.
    let data = Dataset::from_rows(&table.normalized()).unwrap();
    let guess = [1.0, 1.0, 1.0, 1.0];
    let ranking = data.rank(&guess).unwrap();
    println!("Equal-weights ranking:");
    for (pos, &i) in ranking.order().iter().enumerate() {
        println!("  {}. {}", pos + 1, names[i as usize]);
    }

    // 4. Consumer question: how robust is that order near equal weights?
    let roi = RegionOfInterest::cone(&guess, std::f64::consts::PI / 20.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let samples = roi.sampler().sample_buffer(&mut rng, 20_000);
    let v = stability_verify_md(&data, &ranking, &roi, &samples)
        .unwrap()
        .unwrap();
    println!(
        "\nWithin ~9° of equal weights, this exact order holds {:.1}% of the time.",
        100.0 * v.stability
    );

    // 5. Producer question: what is the most defensible top-3 shortlist?
    let mut op = RandomizedEnumerator::new(&data, &roi, RankingScope::TopKSet(3), 0.05).unwrap();
    let mut op_rng = rand::rngs::StdRng::seed_from_u64(8);
    println!("\nMost stable top-3 shortlists near equal weights:");
    for rank in 1..=3 {
        match op.get_next_budget(&mut op_rng, if rank == 1 { 5000 } else { 1000 }) {
            Some(d) => {
                let members: Vec<&str> = d.items.iter().map(|&i| names[i as usize]).collect();
                println!(
                    "  #{rank}: {{{}}} — {:.1}% ± {:.1}%",
                    members.join(", "),
                    100.0 * d.stability,
                    100.0 * d.confidence_error
                );
            }
            None => break,
        }
    }

    // 6. And the weights to publish for the winning full ranking.
    let mm = max_margin_weights(&data, &ranking).unwrap().unwrap();
    println!(
        "\nMax-margin weights for the published order: {:?} (min score gap {:.4})",
        mm.weights
            .iter()
            .map(|w| (w * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
        mm.margin
    );
}

use rand::SeedableRng;
