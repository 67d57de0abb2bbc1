//! Cluster federation: one obs port that speaks for every node.
//!
//! The router installs a [`Federator`] as its obs [`Handler`]; it
//! re-exports the members' `/metrics` as a single exposition with
//! `node`/`partition`/`role` labels, stitches cross-node traces by
//! fanning a trace id out to member `/traces/<id>` endpoints, and
//! aggregates `/readyz` (any unready or unreachable member makes the
//! cluster unready). Scrapes are rare and small; everything here is
//! straight-line string work over [`http_get`].

use crate::expo::{parse_exposition, render_labels, Sample};
use crate::http::{Handler, HttpResponse, EXPOSITION_CONTENT_TYPE};
use crate::registry::Registry;
use crate::tracestore::{
    parse_trace_json, parse_trace_list_json, render_trace_json, render_trace_list_json, tracestore,
    Span,
};

const TEXT: &str = "text/plain; charset=utf-8";
const JSON: &str = "application/json; charset=utf-8";

/// One federated node: where to scrape it and how to label what it says.
#[derive(Clone, Debug)]
pub struct Member {
    /// The member's obs endpoint, `host:port`. Doubles as the `node`
    /// label value.
    pub obs_addr: String,
    pub partition: u16,
    /// `"primary"` or `"follower"`.
    pub role: &'static str,
}

impl Member {
    fn origin_labels(&self) -> Vec<(String, String)> {
        vec![
            ("node".to_string(), self.obs_addr.clone()),
            ("partition".to_string(), self.partition.to_string()),
            ("role".to_string(), self.role.to_string()),
        ]
    }
}

/// The router's federated obs routes. `local` names this process in the
/// merged output (its own registry and trace store join the federation
/// under `role="router"`).
pub struct Federator {
    pub members: Vec<Member>,
    /// `(node_label, registry)` for the federating process itself.
    pub local: (String, &'static Registry),
}

/// One family of the merged exposition being assembled.
struct MergedFamily {
    name: String,
    kind: String,
    help: Option<String>,
    lines: Vec<String>,
}

fn merge_exposition(
    out: &mut Vec<MergedFamily>,
    text: &str,
    origin: &[(String, String)],
) -> Result<(), String> {
    let families = parse_exposition(text)?;
    for family in families {
        let slot = match out.iter_mut().find(|m| m.name == family.name) {
            Some(existing) => {
                if existing.kind != family.kind {
                    continue; // kind conflict across nodes: keep first
                }
                existing
            }
            None => {
                out.push(MergedFamily {
                    name: family.name.clone(),
                    kind: family.kind.clone(),
                    help: family.help.clone(),
                    lines: Vec::new(),
                });
                out.last_mut().expect("just pushed")
            }
        };
        for sample in &family.samples {
            slot.lines.push(federated_line(sample, origin));
        }
    }
    Ok(())
}

/// Re-render one sample with the origin labels appended (keeping a
/// histogram's `le` label last, purely for readability).
fn federated_line(sample: &Sample, origin: &[(String, String)]) -> String {
    let mut labels: Vec<(String, String)> = sample.labels.clone();
    let le = labels
        .iter()
        .position(|(k, _)| k == "le")
        .map(|i| labels.remove(i));
    labels.extend(origin.iter().cloned());
    if let Some(le) = le {
        labels.push(le);
    }
    format!("{}{} {}", sample.name, render_labels(&labels), sample.value)
}

impl Federator {
    /// The merged `/metrics` body. Unreachable members are reported via
    /// the `adcast_federation_member_up` gauge instead of failing the
    /// scrape — a post-failover cluster must still be scrapeable.
    #[must_use]
    pub fn metrics(&self) -> String {
        let mut merged: Vec<MergedFamily> = Vec::new();
        let (local_node, local_reg) = &self.local;
        let local_origin = vec![
            ("node".to_string(), local_node.clone()),
            ("role".to_string(), "router".to_string()),
        ];
        let _ = merge_exposition(&mut merged, &local_reg.expose(), &local_origin);
        let mut up_lines = Vec::new();
        for member in &self.members {
            let origin = member.origin_labels();
            let up = match crate::http::http_get(&member.obs_addr, "/metrics") {
                Ok((200, body)) => merge_exposition(&mut merged, &body, &origin).is_ok(),
                _ => false,
            };
            up_lines.push(format!(
                "adcast_federation_member_up{} {}",
                render_labels(&origin),
                u64::from(up)
            ));
        }
        merged.push(MergedFamily {
            name: "adcast_federation_member_up".to_string(),
            kind: "gauge".to_string(),
            help: Some("Whether the member's /metrics scrape succeeded.".to_string()),
            lines: up_lines,
        });
        let mut out = String::new();
        for family in &merged {
            if let Some(help) = &family.help {
                out.push_str(&format!("# HELP {} {}\n", family.name, help));
            }
            out.push_str(&format!("# TYPE {} {}\n", family.name, family.kind));
            for line in &family.lines {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    }

    /// The merged `/traces` listing: span counts summed across the local
    /// store and every reachable member.
    #[must_use]
    pub fn trace_list(&self) -> Vec<(u64, usize)> {
        let mut merged: Vec<(u64, usize)> = tracestore().trace_ids();
        for member in &self.members {
            let Ok((200, body)) = crate::http::http_get(&member.obs_addr, "/traces") else {
                continue;
            };
            for (id, spans) in parse_trace_list_json(&body) {
                match merged.iter_mut().find(|(mid, _)| *mid == id) {
                    Some((_, n)) => *n += spans,
                    None => merged.push((id, spans)),
                }
            }
        }
        merged
    }

    /// Stitch one trace across the local store and every member,
    /// returning each span with its origin `(node, partition, role)`.
    /// Spans are ordered by parent depth (cross-process clocks are not
    /// comparable), then kind, then node, so the output is deterministic.
    #[must_use]
    pub fn stitch(&self, trace_id: u64) -> Vec<(Span, (String, u16, String))> {
        let mut spans: Vec<(Span, (String, u16, String))> = Vec::new();
        let (local_node, _) = &self.local;
        for span in tracestore().trace(trace_id) {
            spans.push((span, (local_node.clone(), u16::MAX, "router".to_string())));
        }
        for member in &self.members {
            let path = format!("/traces/{trace_id}");
            let Ok((200, body)) = crate::http::http_get(&member.obs_addr, &path) else {
                continue;
            };
            for span in parse_trace_json(&body) {
                spans.push((
                    span,
                    (
                        member.obs_addr.clone(),
                        member.partition,
                        member.role.to_string(),
                    ),
                ));
            }
        }
        // Depth of each span along its parent chain (roots at 0; a parent
        // recorded on an unreachable node counts as a root).
        let ids: Vec<u64> = spans.iter().map(|(s, _)| s.span_id).collect();
        let parents: Vec<u64> = spans.iter().map(|(s, _)| s.parent_span_id).collect();
        let depth_of = |mut i: usize| {
            let mut depth = 0usize;
            let mut hops = 0usize;
            while hops <= ids.len() {
                let parent = parents[i];
                let Some(j) = ids.iter().position(|&id| id == parent) else {
                    break;
                };
                depth += 1;
                hops += 1;
                i = j;
            }
            depth
        };
        let mut order: Vec<usize> = (0..spans.len()).collect();
        order.sort_by_key(|&i| {
            (
                depth_of(i),
                spans[i].0.kind as u64,
                spans[i].1 .0.clone(),
                spans[i].0.span_id,
            )
        });
        order.into_iter().map(|i| spans[i].clone()).collect()
    }

    /// The aggregated `/readyz`: ready only when every member is
    /// reachable and ready.
    #[must_use]
    pub fn readyz(&self) -> (u16, String) {
        let mut unready = Vec::new();
        for member in &self.members {
            match crate::http::http_get(&member.obs_addr, "/readyz") {
                Ok((200, _)) => {}
                Ok((_, body)) => unready.push(format!(
                    "node={} partition={} role={}: {}",
                    member.obs_addr,
                    member.partition,
                    member.role,
                    body.trim()
                )),
                Err(_) => unready.push(format!(
                    "node={} partition={} role={}: unreachable",
                    member.obs_addr, member.partition, member.role
                )),
            }
        }
        if unready.is_empty() {
            (200, "ready\n".to_string())
        } else {
            let mut body = String::from("unready:\n");
            for line in &unready {
                body.push_str(line);
                body.push('\n');
            }
            (503, body)
        }
    }
}

impl Handler for Federator {
    fn handle(&self, path: &str) -> Option<HttpResponse> {
        match path {
            "/metrics" => Some((200, EXPOSITION_CONTENT_TYPE, self.metrics())),
            "/traces" => Some((200, JSON, render_trace_list_json(&self.trace_list()))),
            "/readyz" => {
                let (code, body) = self.readyz();
                Some((code, TEXT, body))
            }
            _ => {
                let id = path.strip_prefix("/traces/")?.parse::<u64>().ok()?;
                let stitched = self.stitch(id);
                if stitched.is_empty() {
                    return Some((404, TEXT, "trace not found\n".to_string()));
                }
                let spans: Vec<Span> = stitched.iter().map(|(s, _)| *s).collect();
                let origins: Vec<(String, u16, String)> =
                    stitched.into_iter().map(|(_, o)| o).collect();
                Some((200, JSON, render_trace_json(id, &spans, Some(&origins))))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::ObsServer;
    use crate::registry;
    use crate::tracestore::{SpanKind, TraceContext};
    use std::sync::Arc;

    #[test]
    fn federated_metrics_label_members_and_survive_dead_nodes() {
        let c = registry().counter("adcast_test_fed_total", "federated test counter");
        c.add(2);
        let member = ObsServer::start("127.0.0.1:0", registry()).expect("member bind");
        let member_addr = member.addr().to_string();
        let fed = Federator {
            members: vec![
                Member {
                    obs_addr: member_addr.clone(),
                    partition: 0,
                    role: "primary",
                },
                Member {
                    // Reserved-but-unbound port: scrape fails fast.
                    obs_addr: "127.0.0.1:1".to_string(),
                    partition: 1,
                    role: "follower",
                },
            ],
            local: ("router:0".to_string(), registry()),
        };
        let text = fed.metrics();
        let families = parse_exposition(&text).expect("federated output must validate");
        let f = crate::expo::find_family(&families, "adcast_test_fed_total").unwrap();
        assert!(
            f.samples
                .iter()
                .any(|s| s.label("node") == Some(member_addr.as_str())
                    && s.label("partition") == Some("0")
                    && s.label("role") == Some("primary")),
            "{text}"
        );
        assert!(
            f.samples.iter().any(|s| s.label("role") == Some("router")),
            "local registry joins the federation:\n{text}"
        );
        let up = crate::expo::find_family(&families, "adcast_federation_member_up").unwrap();
        let by_role = |role: &str| {
            up.samples
                .iter()
                .find(|s| s.label("role") == Some(role))
                .map(|s| s.value)
        };
        assert_eq!(by_role("primary"), Some(1.0), "{text}");
        assert_eq!(by_role("follower"), Some(0.0), "{text}");
        member.stop();
    }

    #[test]
    fn stitching_merges_local_and_member_spans_in_parent_order() {
        let trace_id = 0xC0FFEE;
        let root = TraceContext {
            trace_id,
            parent_span_id: 0,
        };
        // "Member" spans and "router" spans both land in this process's
        // global store; the member server re-serves the same store, so
        // the stitched result sees each span twice — once as local, once
        // as a member span — which is fine for asserting ordering.
        tracestore().record(root, SpanKind::RouterForward, 0, 10, 5);
        let fwd = root.child(SpanKind::RouterForward, 0);
        tracestore().record(fwd, SpanKind::QueueWait, 0, 20, 3);
        let member = ObsServer::start("127.0.0.1:0", registry()).expect("member bind");
        let fed = Federator {
            members: vec![Member {
                obs_addr: member.addr().to_string(),
                partition: 0,
                role: "primary",
            }],
            local: ("router:0".to_string(), registry()),
        };
        let stitched = fed.stitch(trace_id);
        assert!(stitched.len() >= 4, "local + member views");
        assert_eq!(stitched[0].0.kind, SpanKind::RouterForward, "roots first");
        let body = {
            let spans: Vec<Span> = stitched.iter().map(|(s, _)| *s).collect();
            let origins: Vec<(String, u16, String)> =
                stitched.iter().map(|(_, o)| o.clone()).collect();
            render_trace_json(trace_id, &spans, Some(&origins))
        };
        assert!(body.contains("\"role\":\"router\""), "{body}");
        assert!(body.contains("\"role\":\"primary\""), "{body}");
        let reparsed = parse_trace_json(&body);
        assert_eq!(reparsed.len(), stitched.len());
        member.stop();
    }

    #[test]
    fn readyz_aggregates_member_state() {
        use crate::ready::{readiness, UNREADY_DEGRADED};
        let _guard = crate::ready::test_lock();
        let member = ObsServer::start("127.0.0.1:0", registry()).expect("member bind");
        let fed = Federator {
            members: vec![Member {
                obs_addr: member.addr().to_string(),
                partition: 0,
                role: "primary",
            }],
            local: ("router:0".to_string(), registry()),
        };
        readiness().set(UNREADY_DEGRADED, true);
        let (code, body) = fed.readyz();
        assert_eq!(code, 503, "{body}");
        assert!(body.contains("degraded"), "{body}");
        readiness().set(UNREADY_DEGRADED, false);
        let (code, _) = fed.readyz();
        assert_eq!(code, 200);
        let dead = Federator {
            members: vec![Member {
                obs_addr: "127.0.0.1:1".to_string(),
                partition: 0,
                role: "primary",
            }],
            local: ("router:0".to_string(), registry()),
        };
        let (code, body) = dead.readyz();
        assert_eq!(code, 503);
        assert!(body.contains("unreachable"), "{body}");
        let arc: Arc<dyn Handler> = Arc::new(dead);
        assert!(arc.handle("/readyz").is_some());
        member.stop();
    }
}
