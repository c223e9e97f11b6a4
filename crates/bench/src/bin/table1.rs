//! Regenerates Table I of the paper: the properties of the experiment
//! tensors, both at the paper's full scale (from the dataset profiles) and
//! at the scale actually generated for this reproduction.

use bench::{
    cli_args, cli_tensor, layout_memory_report, print_header, run_requested_check, table_nnz,
};
use datagen::{DatasetProfile, ProfileName};
use sptensor::stats::{format_count, tensor_stats};

fn main() {
    let args = cli_args();
    if let Some((label, tensor, ranks)) = cli_tensor(&args) {
        print_header(
            "Table I — properties of the supplied tensor",
            &format!("Loaded '{label}' through the streamed .tns reader."),
        );
        let stats = tensor_stats(&tensor);
        let dims: Vec<String> = tensor.dims().iter().map(|&d| format_count(d)).collect();
        let max_imb = stats
            .modes
            .iter()
            .map(|m| m.imbalance)
            .fold(0.0f64, f64::max);
        println!(
            "{:<12} {:>24} {:>10} {:>8}",
            "Tensor", "dims", "nnz", "max imb"
        );
        println!(
            "{:<12} {:>24} {:>10} {:>8.1}",
            label,
            dims.join(" x "),
            format_count(tensor.nnz()),
            max_imb
        );
        println!();
        println!("Per-mode plan footprint by index layout (per-mode TTMc strategy):");
        for (layout, bytes) in layout_memory_report(&tensor) {
            println!("  {:<12} {:>12} bytes", format!("{layout:?}"), bytes);
        }
        run_requested_check(&args, &tensor, &ranks);
        return;
    }
    print_header(
        "Table I — tensors used in the experiments",
        "Full-scale shapes come from the paper; the 'generated' columns describe the\n\
         scaled synthetic instances used by the other tables (see DESIGN.md).",
    );

    println!(
        "{:<12} {:>28} {:>10} | {:>24} {:>10} {:>8}",
        "Tensor", "paper dims", "paper nnz", "generated dims", "gen nnz", "max imb"
    );
    let nnz = table_nnz();
    for name in [
        ProfileName::Netflix,
        ProfileName::Nell,
        ProfileName::Delicious,
        ProfileName::Flickr,
    ] {
        let profile = DatasetProfile::new(name);
        let tensor = profile.generate(nnz, 42);
        let stats = tensor_stats(&tensor);
        let paper_dims: Vec<String> = profile.full_dims.iter().map(|&d| format_count(d)).collect();
        let gen_dims: Vec<String> = tensor.dims().iter().map(|&d| format_count(d)).collect();
        let max_imb = stats
            .modes
            .iter()
            .map(|m| m.imbalance)
            .fold(0.0f64, f64::max);
        println!(
            "{:<12} {:>28} {:>10} | {:>24} {:>10} {:>8.1}",
            name.as_str(),
            paper_dims.join(" x "),
            format_count(profile.full_nnz),
            gen_dims.join(" x "),
            format_count(tensor.nnz()),
            max_imb
        );
    }
    println!();
    println!(
        "(max imb = the largest max/mean slice-size ratio over the modes of the generated tensor,"
    );
    println!(" confirming the Zipf-skewed structure the distributed experiments rely on.)");
}
