//! The full image pipeline of the paper's Figure 3: a color image is
//! converted to grayscale, binarized with `im2bw(0.5)`, labeled, and the
//! result written as Netpbm files you can open in any image viewer:
//!
//! * `target/pipeline_input.ppm`  — the synthetic color scene,
//! * `target/pipeline_binary.pbm` — the binarized image (Figure 3b),
//! * `target/pipeline_labels.ppm` — pseudo-colored components.
//!
//! ```text
//! cargo run --release --example pipeline_netpbm
//! ```

use ::paremsp::core::par::paremsp;
use ::paremsp::image::io::{pbm, ppm};
use ::paremsp::image::threshold::im2bw;
use ::paremsp::image::RgbImage;

fn main() -> std::io::Result<()> {
    // A synthetic color scene: bright disks on a dark gradient background.
    let (w, h) = (640usize, 480usize);
    let img = RgbImage::from_fn(w, h, |r, c| {
        let bg = (40 + (r * 40 / h)) as u8;
        // deterministic "objects": bright disks on a grid with varying radii
        let (gr, gc) = (r / 80, c / 80);
        let (cy, cx) = (gr * 80 + 40, gc * 80 + 40);
        let rad = 12 + ((gr * 7 + gc * 13) % 20);
        let d2 = (r as isize - cy as isize).pow(2) + (c as isize - cx as isize).pow(2);
        if d2 < (rad * rad) as isize {
            [220, 200 - (gr * 20) as u8, (60 + gc * 25) as u8]
        } else {
            [bg / 2, bg, bg / 3]
        }
    });

    // Figure 3 pipeline: RGB -> gray (Rec.601) -> im2bw(0.5).
    let gray = img.to_gray();
    let binary = im2bw(&gray, 0.5);
    println!("binarized: {:.1}% foreground", binary.density() * 100.0);

    // Label in parallel.
    let labels = paremsp(&binary, 8);
    println!("{} components", labels.num_components());

    std::fs::create_dir_all("target")?;
    std::fs::write("target/pipeline_input.ppm", ppm::write_binary(&img))?;
    std::fs::write("target/pipeline_binary.pbm", pbm::write_binary(&binary))?;
    std::fs::write(
        "target/pipeline_labels.ppm",
        ppm::write_label_colormap(labels.as_slice(), labels.width(), labels.height()),
    )?;
    println!("wrote target/pipeline_input.ppm, pipeline_binary.pbm, pipeline_labels.ppm");

    // Round-trip check: the scene PPM and the PBM we wrote parse back
    // identically.
    let reread =
        ppm::read(&std::fs::read("target/pipeline_input.ppm")?).expect("PPM round-trip parse");
    assert_eq!(reread, img);
    let reread =
        pbm::read(&std::fs::read("target/pipeline_binary.pbm")?).expect("PBM round-trip parse");
    assert_eq!(reread, binary);
    println!("PPM and PBM round-trips verified");
    Ok(())
}
