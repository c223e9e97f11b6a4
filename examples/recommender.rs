//! Recommender-system scenario (the paper's Netflix workload): a
//! `user × item × time` rating tensor is decomposed with Tucker/HOOI and
//! the factors are used to predict held-out ratings.
//!
//! ```text
//! cargo run --release --example recommender
//! ```

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tucker_repro::prelude::*;

fn main() -> Result<(), TuckerError> {
    // A scaled Netflix-profile tensor: user x movie x time with Zipf-skewed
    // popularity, integer-like rating values.
    let profile = DatasetProfile::new(ProfileName::Netflix);
    let full = profile.generate(50_000, 2016);
    println!("rating tensor: {:?}, {} ratings", full.dims(), full.nnz());

    // Hold out 10% of the ratings for evaluation.
    let mut rng = SmallRng::seed_from_u64(99);
    let mut train_ids = Vec::new();
    let mut test_ids = Vec::new();
    for k in 0..full.nnz() {
        if rng.gen::<f64>() < 0.10 {
            test_ids.push(k);
        } else {
            train_ids.push(k);
        }
    }
    let train = full.subset(&train_ids);
    let test = full.subset(&test_ids);
    println!(
        "train: {} ratings, test: {} ratings",
        train.nnz(),
        test.nnz()
    );

    // Plan a session on the training tensor and decompose with the paper's
    // ranks (10 per mode).  A production recommender re-solves the same
    // plan on a schedule (new seeds, rank sweeps) as ratings change weight.
    let mut solver = TuckerSolver::plan(&train, PlanOptions::new())?;
    let config = TuckerConfig::new(vec![10, 10, 10])
        .max_iterations(8)
        .seed(3);
    let model = solver.solve(&config)?;
    println!(
        "fit on training data after {} iterations: {:.4}",
        model.iterations,
        model.final_fit()
    );

    // Predict the held-out entries from the model and compare against a
    // baseline that predicts the global mean rating.  The whole test set is
    // scored in one `predict_many` batch — the serving shape — which
    // enumerates the core's nonzero terms once instead of per rating.
    let mean: f64 = train.values().iter().sum::<f64>() / train.nnz() as f64;
    let queries: Vec<Vec<usize>> = (0..test.nnz()).map(|t| test.index(t)).collect();
    let predicted = model.predict_many(&queries);
    let mut model_se = 0.0;
    let mut baseline_se = 0.0;
    for ((_, actual), predicted) in test.iter().zip(&predicted) {
        model_se += (actual - predicted).powi(2);
        baseline_se += (actual - mean).powi(2);
    }
    let n = test.nnz() as f64;
    println!(
        "held-out RMSE  (Tucker model): {:.4}",
        (model_se / n).sqrt()
    );
    println!(
        "held-out RMSE  (global mean):  {:.4}",
        (baseline_se / n).sqrt()
    );
    println!();
    println!("Note: with zero-imputed training (standard sparse Tucker), predictions are");
    println!("shrunk toward zero; applications typically post-scale or use weighted variants.");
    Ok(())
}
