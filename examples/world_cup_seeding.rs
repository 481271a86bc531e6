//! World-cup seeding: the paper's §6.2 FIFA study in four dimensions.
//!
//! FIFA ranked men's national teams by t[1] + 0.5·t[2] + 0.3·t[3] +
//! 0.2·t[4] over four yearly performance values and used the result to
//! seed the 2018 World Cup. With d = 4 the exact sweep no longer applies;
//! we use the arrangement-based GET-NEXTmd inside a 0.999-cosine-
//! similarity cone around FIFA's weights (Figure 9) and the randomized
//! operator for the seeding-relevant top-k question.
//!
//! Run with: `cargo run --release --example world_cup_seeding`

use rand::rngs::StdRng;
use rand::SeedableRng;
use stable_rankings::prelude::*;

fn main() {
    let mut rng = StdRng::seed_from_u64(1904); // FIFA founded 1904
    let table = fifa_top100(&mut rng);
    let data = Dataset::from_rows(&table.normalized()).unwrap();
    let fifa_weights = [1.0, 0.5, 0.3, 0.2];
    let reference = data.rank(&fifa_weights).unwrap();

    println!(
        "FIFA-style table: {} teams, {} yearly performance attributes.",
        data.len(),
        data.dim()
    );

    // Region of interest: 0.999 cosine similarity around FIFA's weights.
    let roi = RegionOfInterest::cone_cosine(&fifa_weights, 0.999);

    // --- Consumer: is the official ranking stable? ---------------------
    let mut sample_rng = StdRng::seed_from_u64(7);
    let samples = roi.sampler().sample_buffer(&mut sample_rng, 10_000);
    let verified = stability_verify_md(&data, &reference, &roi, &samples)
        .unwrap()
        .expect("official ranking is feasible");
    println!(
        "\n[consumer] Within 0.999 cosine similarity of FIFA's own weights, the \
         official ranking holds for only {:.4}% of weight choices.",
        100.0 * verified.stability
    );

    // --- Producer: enumerate stable rankings in the cone (GET-NEXTmd) --
    let mut md_rng = StdRng::seed_from_u64(8);
    let mut md = MdEnumerator::new(&data, &roi, 10_000, &mut md_rng).unwrap();
    println!(
        "[producer] {} ordering-exchange hyperplanes cross the cone.",
        md.num_hyperplanes()
    );
    let top = md.top_h(10);
    println!("[producer] Top-10 stable rankings near FIFA's weights:");
    let mut found_reference = false;
    for (i, s) in top.iter().enumerate() {
        let tau = s.ranking.kendall_tau_distance(&reference).unwrap();
        if s.ranking == reference {
            found_reference = true;
        }
        println!(
            "  #{:<2} stability {:6.2}%  Kendall-tau from official: {tau}",
            i + 1,
            100.0 * s.stability
        );
    }
    if !found_reference {
        println!(
            "[producer] The official ranking is NOT among the top-10 stable rankings \
             — echoing the paper's finding that questions FIFA's seeding basis."
        );
    }

    // Tunisia/Mexico-style inspection: any adjacent pair near the seeding
    // cut (top 8) that flips in the most stable ranking?
    let best = &top[0].ranking;
    for seed_pos in 0..8usize {
        let official_team = reference.item_at(seed_pos);
        let stable_pos = best.rank_of(official_team).unwrap();
        if stable_pos >= 8 && seed_pos < 8 {
            println!(
                "[producer] Team #{official_team} is seeded (rank {}) officially but \
                 falls to rank {} in the most stable ranking.",
                seed_pos + 1,
                stable_pos + 1
            );
        }
    }

    // --- Seeding is a top-k question: randomized operator --------------
    let k = 8;
    let mut r_rng = StdRng::seed_from_u64(9);
    let mut pots = RandomizedEnumerator::new(&data, &roi, RankingScope::TopKSet(k), 0.05).unwrap();
    println!("\n[producer] Most stable top-{k} *sets* (the seeding pots):");
    for i in 0..3 {
        match pots.get_next_budget(&mut r_rng, if i == 0 { 5000 } else { 1000 }) {
            Some(d) => println!(
                "  #{:<2} stability {:6.2}% ± {:.2}%  teams {:?}",
                i + 1,
                100.0 * d.stability,
                100.0 * d.confidence_error,
                d.items
            ),
            None => break,
        }
    }
    let official_pot = reference.top_k_set(k);
    println!(
        "  official pot would be {:?} — compare membership above.",
        official_pot.items()
    );
}
