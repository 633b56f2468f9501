//! Shared helpers for the `figures` regeneration binary: saving a series
//! as markdown, JSON and SVG, and sketching it as text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sct_analysis::svg::{render_series, SvgOptions};
use sct_analysis::Series;
use std::fs;
use std::path::Path;

/// Writes a series to `<dir>/<stem>.{md,json,svg}`, creating the directory
/// if needed, and returns the markdown rendering.
pub fn save_series(dir: &Path, stem: &str, series: &Series) -> std::io::Result<String> {
    fs::create_dir_all(dir)?;
    let md = series.to_markdown();
    fs::write(dir.join(format!("{stem}.md")), &md)?;
    fs::write(dir.join(format!("{stem}.json")), series.to_json())?;
    fs::write(
        dir.join(format!("{stem}.svg")),
        render_series(series, &SvgOptions::default()),
    )?;
    Ok(md)
}

/// Renders a quick ASCII sketch of a series (one line per curve) so the
/// harness output is eyeballable without plotting tools: each point is the
/// mean scaled into `[0, width)` over `[lo, hi]`.
pub fn sparkline(series: &Series, lo: f64, hi: f64) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let mut out = String::new();
    let label_width = series
        .curves
        .iter()
        .map(|c| c.label.len())
        .max()
        .unwrap_or(0);
    for c in &series.curves {
        let mut line = format!("{:width$}  ", c.label, width = label_width);
        for p in &c.points {
            let t = ((p.mean - lo) / (hi - lo)).clamp(0.0, 1.0);
            let idx = ((t * (GLYPHS.len() - 1) as f64).round()) as usize;
            line.push(GLYPHS[idx]);
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_simcore::Summary;

    fn series() -> Series {
        let mut s = Series::new("t", "x", "y", vec![0.0, 1.0]);
        s.push_curve("a", vec![Summary::of(&[0.0]), Summary::of(&[1.0])]);
        s.push_curve("bb", vec![Summary::of(&[0.5]), Summary::of(&[0.5])]);
        s
    }

    #[test]
    fn sparkline_spans_glyph_range() {
        let sk = sparkline(&series(), 0.0, 1.0);
        let lines: Vec<&str> = sk.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains('▁') && lines[0].contains('█'));
        assert!(lines[1].starts_with("bb"));
    }

    #[test]
    fn save_series_round_trips() {
        let dir = std::env::temp_dir().join("sct-bench-test");
        let md = save_series(&dir, "unit", &series()).unwrap();
        assert!(md.contains("### t"));
        let json = std::fs::read_to_string(dir.join("unit.json")).unwrap();
        assert_eq!(Series::from_json(&json).unwrap(), series());
        let svg = std::fs::read_to_string(dir.join("unit.svg")).unwrap();
        assert!(svg.starts_with("<svg"));
    }
}
