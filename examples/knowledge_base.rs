//! Knowledge-base analysis scenario (the paper's NELL workload): an
//! `entity × relation × entity` tensor of belief scores is decomposed and
//! the dominant relation clusters are read off the relation-mode factor.
//!
//! ```text
//! cargo run --release --example knowledge_base
//! ```

use tucker_repro::prelude::*;

fn main() -> Result<(), TuckerError> {
    // Scaled NELL-profile tensor: a huge entity mode, a tiny skewed relation
    // mode and a large second entity mode.
    let profile = DatasetProfile::new(ProfileName::Nell);
    let tensor = profile.generate(60_000, 7);
    println!(
        "knowledge tensor (entity x relation x entity): {:?}, {} triples",
        tensor.dims(),
        tensor.nnz()
    );

    let stats = sptensor::stats::tensor_stats(&tensor);
    for m in &stats.modes {
        println!(
            "  mode {}: {} indices, {} non-empty, busiest slice {} triples (imbalance {:.1}x)",
            m.mode, m.dim, m.nonempty_slices, m.max_slice_nnz, m.imbalance
        );
    }

    // Decompose from a seeded random start at the paper's rank 10.
    let config = TuckerConfig::new(vec![10, 10, 10])
        .max_iterations(6)
        .seed(11);
    let model = tucker_hooi(&tensor, &config)?;
    println!(
        "\nHOOI finished: fit {:.4} after {} iterations",
        model.final_fit(),
        model.iterations
    );

    // The relation-mode factor (mode 1) groups relations with similar
    // entity-entity co-occurrence patterns: report, for each latent
    // component, the relations loading most strongly on it.
    let relation_factor: &Matrix = &model.factors[1];
    println!("\ntop relations per latent component (relation ids):");
    for component in 0..relation_factor.ncols().min(4) {
        let mut loadings: Vec<(usize, f64)> = (0..relation_factor.nrows())
            .map(|r| (r, relation_factor[(r, component)].abs()))
            .collect();
        loadings.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        let top: Vec<String> = loadings
            .iter()
            .take(5)
            .map(|(r, w)| format!("rel{r} ({w:.3})"))
            .collect();
        println!("  component {component}: {}", top.join(", "));
    }
    println!("\n(The Tucker core links these relation components to entity components in");
    println!(" both entity modes — the 'identifying relations among factors' use case the");
    println!(" paper cites for the Tucker formulation.)");
    Ok(())
}
