//! Self-contained HTML campaign report.
//!
//! [`render_campaign_html`] folds the observability session's output —
//! the metrics snapshot, the energy-attribution ledger and the campaign
//! supervision report — into one dependency-free HTML document (inline
//! CSS, no scripts, no external assets), so a CI artifact can be opened
//! straight from the build page. Sections:
//!
//! 1. campaign supervision (completed / resumed / quarantined /
//!    budget-truncated / failed, plus the per-scenario failure table),
//! 2. phase × term energy breakdown aggregated from the ledger, split
//!    by host role, with per-kind/outcome migration counts,
//! 3. model-residual summaries (the `residual.energy.*` gauges pivoted
//!    into a model × role × kind table),
//! 4. fault / retry / run counters and the distribution histograms.

use crate::campaign::CampaignReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use wavm3_obs::{ObsReport, RoleLedger, TermEnergy};

/// Escape `&`, `<`, `>` and `"` for safe embedding in HTML text/attrs.
fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            other => out.push(other),
        }
    }
    out
}

/// Fixed-width number for table cells (3 decimals, `n/a` for NaN).
fn cell(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.3}")
    } else {
        "n/a".to_string()
    }
}

fn term_row(out: &mut String, label: &str, source: &TermEnergy, target: &TermEnergy) {
    let total = source.total_j() + target.total_j();
    let _ = writeln!(
        out,
        "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
         <td class=\"num\">{}</td></tr>",
        escape_html(label),
        cell(source.total_j()),
        cell(target.total_j()),
        cell(total),
    );
}

fn energy_section(out: &mut String, ledger: &[(String, wavm3_obs::LedgerEntry)]) {
    let _ = writeln!(out, "<h2>Energy attribution</h2>");
    if ledger.is_empty() {
        let _ = writeln!(
            out,
            "<p>No ledger entries were collected (run with <code>--ledger-out</code> \
             or <code>--html-report</code> to arm the ledger).</p>"
        );
        return;
    }
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut source = RoleLedger::default();
    let mut target = RoleLedger::default();
    for (_, entry) in ledger {
        *counts
            .entry((entry.kind.to_string(), entry.outcome.to_string()))
            .or_insert(0) += 1;
        source.initiation = source.initiation.plus(&entry.source.initiation);
        source.transfer = source.transfer.plus(&entry.source.transfer);
        source.activation = source.activation.plus(&entry.source.activation);
        source.rollback = source.rollback.plus(&entry.source.rollback);
        target.initiation = target.initiation.plus(&entry.target.initiation);
        target.transfer = target.transfer.plus(&entry.target.transfer);
        target.activation = target.activation.plus(&entry.target.activation);
        target.rollback = target.rollback.plus(&entry.target.rollback);
    }

    let _ = writeln!(
        out,
        "<p>{} migrations in the ledger, {:.3} kJ total.</p>",
        ledger.len(),
        (source.total_j() + target.total_j()) / 1e3
    );
    let _ = writeln!(
        out,
        "<table><tr><th>kind</th><th>outcome</th><th class=\"num\">migrations</th></tr>"
    );
    for ((kind, outcome), n) in &counts {
        let _ = writeln!(
            out,
            "<tr><td>{}</td><td>{}</td><td class=\"num\">{n}</td></tr>",
            escape_html(kind),
            escape_html(outcome)
        );
    }
    let _ = writeln!(out, "</table>");

    let _ = writeln!(
        out,
        "<h3>Per phase (J)</h3>\
         <table><tr><th>phase</th><th class=\"num\">source</th>\
         <th class=\"num\">target</th><th class=\"num\">total</th></tr>"
    );
    for ((label, src), (_, dst)) in source.phases().iter().zip(target.phases().iter()) {
        term_row(out, label, src, dst);
    }
    let _ = writeln!(out, "</table>");

    let src_terms = source
        .phases()
        .iter()
        .fold(TermEnergy::default(), |acc, (_, t)| acc.plus(t));
    let dst_terms = target
        .phases()
        .iter()
        .fold(TermEnergy::default(), |acc, (_, t)| acc.plus(t));
    let _ = writeln!(
        out,
        "<h3>Per term (J)</h3>\
         <table><tr><th>term</th><th class=\"num\">source</th>\
         <th class=\"num\">target</th><th class=\"num\">total</th></tr>"
    );
    for (label, s, d) in [
        ("idle", src_terms.idle_j, dst_terms.idle_j),
        ("cpu", src_terms.cpu_j, dst_terms.cpu_j),
        ("mem-dirty", src_terms.mem_dirty_j, dst_terms.mem_dirty_j),
        ("network", src_terms.network_j, dst_terms.network_j),
        ("service", src_terms.service_j, dst_terms.service_j),
    ] {
        let _ = writeln!(
            out,
            "<tr><td>{label}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td></tr>",
            cell(s),
            cell(d),
            cell(s + d)
        );
    }
    let _ = writeln!(out, "</table>");
}

fn residual_section(out: &mut String, gauges: &BTreeMap<String, f64>) {
    // Pivot `residual.energy.{model}.{role}.{kind}.{stat}` gauges into a
    // model × role × kind table of MAE / RMSE / NRMSE.
    let mut rows: BTreeMap<(String, String, String), [Option<f64>; 3]> = BTreeMap::new();
    for (name, value) in gauges {
        let Some(rest) = name.strip_prefix("residual.energy.") else {
            continue;
        };
        let parts: Vec<&str> = rest.split('.').collect();
        if parts.len() != 4 {
            continue;
        }
        let slot = match parts[3] {
            "mae_j" => 0,
            "rmse_j" => 1,
            "nrmse_pct" => 2,
            _ => continue,
        };
        rows.entry((parts[0].into(), parts[1].into(), parts[2].into()))
            .or_default()[slot] = Some(*value);
    }
    let _ = writeln!(out, "<h2>Model residuals (per-migration energy)</h2>");
    if rows.is_empty() {
        let _ = writeln!(
            out,
            "<p>No residual diagnostics in this run (they stream from the \
             model-evaluation tables, not the raw campaign).</p>"
        );
        return;
    }
    let _ = writeln!(
        out,
        "<table><tr><th>model</th><th>role</th><th>kind</th>\
         <th class=\"num\">MAE (J)</th><th class=\"num\">RMSE (J)</th>\
         <th class=\"num\">NRMSE (%)</th></tr>"
    );
    for ((model, role, kind), stats) in &rows {
        let fmt = |v: Option<f64>| v.map(cell).unwrap_or_else(|| "n/a".to_string());
        let _ = writeln!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{}</td></tr>",
            escape_html(model),
            escape_html(role),
            escape_html(kind),
            fmt(stats[0]),
            fmt(stats[1]),
            fmt(stats[2]),
        );
    }
    let _ = writeln!(out, "</table>");
}

fn supervision_section(out: &mut String, campaign: &CampaignReport) {
    let _ = writeln!(out, "<h2>Campaign supervision</h2>");
    let s = &campaign.stats;
    let _ = writeln!(
        out,
        "<table><tr><th class=\"num\">completed</th><th class=\"num\">resumed</th>\
         <th class=\"num\">quarantined</th><th class=\"num\">budget-truncated</th>\
         <th class=\"num\">failed</th></tr>\
         <tr><td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
         <td class=\"num\">{}</td><td class=\"num\">{}</td></tr></table>",
        s.completed, s.resumed, s.quarantined, s.budget_truncated, s.failed
    );
    if !campaign.failures.is_empty() {
        let _ = writeln!(
            out,
            "<h3>Failures</h3><table><tr><th>scenario</th><th class=\"num\">rep</th>\
             <th class=\"num\">seed</th><th>message</th></tr>"
        );
        for f in &campaign.failures {
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{:#x}</td>\
                 <td>{}</td></tr>",
                escape_html(&f.scenario),
                f.rep,
                f.base_seed,
                escape_html(&f.message)
            );
        }
        let _ = writeln!(out, "</table>");
    }
}

fn profiling_section(out: &mut String, obs: &ObsReport) {
    let rows = obs.perf.hotspots();
    if rows.is_empty() {
        return;
    }
    let _ = writeln!(
        out,
        "<h2>Wall-clock profile</h2>\
         <p>Self-profiler call tree, flattened (wall-clock data — not \
         reproducible across machines).</p>\
         <table><tr><th>scope path</th><th class=\"num\">count</th>\
         <th class=\"num\">total (ms)</th><th class=\"num\">self (ms)</th>\
         <th class=\"num\">max (ms)</th></tr>"
    );
    for h in rows {
        let _ = writeln!(
            out,
            "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
             <td class=\"num\">{}</td><td class=\"num\">{}</td></tr>",
            escape_html(&h.path),
            h.count,
            cell(h.total_ns as f64 / 1e6),
            cell(h.self_ns as f64 / 1e6),
            cell(h.max_ns as f64 / 1e6),
        );
    }
    let _ = writeln!(out, "</table>");
}

fn metrics_section(out: &mut String, obs: &ObsReport) {
    let snap = &obs.metrics;
    let _ = writeln!(out, "<h2>Counters</h2>");
    if snap.counters.is_empty() {
        let _ = writeln!(out, "<p>No counters recorded.</p>");
    } else {
        let _ = writeln!(
            out,
            "<table><tr><th>counter</th><th class=\"num\">value</th></tr>"
        );
        for (name, value) in &snap.counters {
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td class=\"num\">{value}</td></tr>",
                escape_html(name)
            );
        }
        let _ = writeln!(out, "</table>");
    }
    if !snap.histograms.is_empty() {
        let _ = writeln!(
            out,
            "<h2>Distributions</h2>\
             <table><tr><th>histogram</th><th class=\"num\">samples</th>\
             <th class=\"num\">mean</th><th class=\"num\">p50</th>\
             <th class=\"num\">p95</th><th class=\"num\">p99</th>\
             <th class=\"num\">sum</th></tr>"
        );
        let quant = |h: &wavm3_obs::metrics::HistogramSnapshot, q: f64| {
            h.quantile(q).map(cell).unwrap_or_else(|| "n/a".to_string())
        };
        for (name, h) in &snap.histograms {
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td></tr>",
                escape_html(name),
                h.count,
                h.mean().map(cell).unwrap_or_else(|| "n/a".to_string()),
                quant(h, 0.5),
                quant(h, 0.95),
                quant(h, 0.99),
                cell(h.sum())
            );
        }
        let _ = writeln!(out, "</table>");
    }
}

/// Render the whole campaign report as one self-contained HTML page.
pub fn render_campaign_html(obs: &ObsReport, campaign: &CampaignReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>WAVM3 campaign report</title>\n<style>\n\
         body {{ font-family: sans-serif; margin: 2rem auto; max-width: 60rem; \
         color: #222; }}\n\
         table {{ border-collapse: collapse; margin: 0.5rem 0 1rem; }}\n\
         th, td {{ border: 1px solid #bbb; padding: 0.25rem 0.6rem; }}\n\
         th {{ background: #eee; text-align: left; }}\n\
         td.num, th.num {{ text-align: right; font-variant-numeric: tabular-nums; }}\n\
         h1 {{ border-bottom: 2px solid #444; padding-bottom: 0.3rem; }}\n\
         code {{ background: #f4f4f4; padding: 0 0.2rem; }}\n\
         </style>\n</head>\n<body>\n<h1>WAVM3 campaign report</h1>"
    );
    supervision_section(&mut out, campaign);
    energy_section(&mut out, &obs.ledger);
    residual_section(&mut out, &obs.metrics.gauges);
    metrics_section(&mut out, obs);
    profiling_section(&mut out, obs);
    let _ = writeln!(out, "</body>\n</html>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavm3_obs::metrics::MetricsSnapshot;
    use wavm3_obs::LedgerEntry;

    fn empty_campaign() -> CampaignReport {
        CampaignReport {
            stats: Default::default(),
            failures: Vec::new(),
        }
    }

    fn entry(j: f64) -> LedgerEntry {
        let term = TermEnergy {
            idle_j: j,
            cpu_j: j / 2.0,
            mem_dirty_j: 0.0,
            network_j: j / 4.0,
            service_j: 0.0,
        };
        let role = RoleLedger {
            initiation: term,
            transfer: term,
            activation: term,
            rollback: TermEnergy::default(),
        };
        LedgerEntry {
            kind: "live",
            outcome: "completed",
            source: role,
            target: role,
        }
    }

    fn report_with(ledger: Vec<(String, LedgerEntry)>, snap: MetricsSnapshot) -> ObsReport {
        ObsReport {
            events: Vec::new(),
            ledger,
            metrics: snap,
            perf: Default::default(),
        }
    }

    #[test]
    fn report_is_self_contained_and_covers_all_sections() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("faults.injected".into(), 3);
        snap.gauges
            .insert("residual.energy.wavm3.source.live.mae_j".into(), 12.0);
        snap.gauges
            .insert("residual.energy.wavm3.source.live.rmse_j".into(), 15.0);
        snap.gauges
            .insert("residual.energy.wavm3.source.live.nrmse_pct".into(), 4.5);
        let obs = report_with(vec![("s|rep000|att0".into(), entry(100.0))], snap);
        let html = render_campaign_html(&obs, &empty_campaign());

        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("Campaign supervision"));
        assert!(html.contains("Energy attribution"));
        assert!(html.contains("1 migrations in the ledger"));
        assert!(html.contains("Model residuals"));
        assert!(html.contains("wavm3"));
        assert!(html.contains("faults.injected"));
        // Self-contained: no external links, scripts or images.
        for forbidden in ["<script", "src=", "href=", "http://", "https://"] {
            assert!(!html.contains(forbidden), "found {forbidden}");
        }
    }

    #[test]
    fn html_escapes_metric_names_and_failure_messages() {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("a<b>&\"c\"".into(), 1);
        let obs = report_with(Vec::new(), snap);
        let mut campaign = empty_campaign();
        campaign.failures.push(crate::runner::ScenarioFailure {
            scenario: "<evil>".into(),
            base_seed: 7,
            rep: 0,
            fault_plan: None,
            message: "panic <at> \"x\"".into(),
        });
        let html = render_campaign_html(&obs, &campaign);
        assert!(html.contains("a&lt;b&gt;&amp;&quot;c&quot;"));
        assert!(html.contains("&lt;evil&gt;"));
        assert!(!html.contains("<evil>"));
    }

    #[test]
    fn empty_ledger_points_at_the_flag() {
        let obs = report_with(Vec::new(), MetricsSnapshot::default());
        let html = render_campaign_html(&obs, &empty_campaign());
        assert!(html.contains("--ledger-out"));
    }
}
