//! Per-request layer attribution from the `gmr_obsv` journal.
//!
//! The benchmark sends each request with its own trace id and records a
//! `bench.request` span (the client's send-to-response interval) carrying
//! that id. The gateway and the backend each journal an `access` event
//! under the same trace id. Joining the three splits one request's time:
//!
//! ```text
//! client span  = client.self + gateway total
//! gateway total = gateway.self + backend total
//! backend total = server.self + queue (batch wait) + sim
//! ```

use gmr_obsv::{Event, Record};
use std::collections::HashMap;

/// Name of the benchmark's client-side span.
pub const CLIENT_SPAN: &str = "bench.request";

/// One hop's access fields, microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Hop {
    pub total_us: u64,
    pub queue_us: u64,
    pub sim_us: u64,
}

/// One request's time by layer, microseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Split {
    pub client_self: f64,
    pub gateway_self: f64,
    pub server_self: f64,
    pub queue: f64,
    pub sim: f64,
}

impl Split {
    /// Self-time arithmetic for one joined request.
    pub fn of(client_us: u64, gateway: Hop, backend: Hop) -> Split {
        let f = |x: u64| x as f64;
        Split {
            client_self: f(client_us) - f(gateway.total_us),
            gateway_self: f(gateway.total_us) - f(backend.total_us),
            server_self: f(backend.total_us) - f(backend.queue_us) - f(backend.sim_us),
            queue: f(backend.queue_us),
            sim: f(backend.sim_us),
        }
    }

    pub fn total(&self) -> f64 {
        self.client_self + self.gateway_self + self.server_self + self.queue + self.sim
    }
}

/// Join client spans with gateway (`gw:` route) and backend access events
/// by trace id. Returns the split per joined trace id, and how many client
/// spans found no complete (gateway + backend) pair.
pub fn join(records: &[Record]) -> (HashMap<u64, Split>, usize) {
    let mut client: HashMap<u64, u64> = HashMap::new();
    let mut gateway: HashMap<u64, Hop> = HashMap::new();
    let mut backend: HashMap<u64, Hop> = HashMap::new();
    for r in records {
        match &r.event {
            Event::Span {
                name,
                dur_us,
                arg: Some(trace),
                ..
            } if *name == CLIENT_SPAN => {
                client.insert(*trace, *dur_us);
            }
            Event::Access {
                trace,
                path,
                queue_us,
                sim_us,
                dur_us,
                ..
            } => {
                let hop = Hop {
                    total_us: *dur_us,
                    queue_us: *queue_us,
                    sim_us: *sim_us,
                };
                if path.starts_with("gw:") {
                    gateway.insert(*trace, hop);
                } else {
                    backend.insert(*trace, hop);
                }
            }
            _ => {}
        }
    }
    let mut out = HashMap::with_capacity(client.len());
    let mut missing = 0;
    for (trace, client_us) in client {
        match (gateway.get(&trace), backend.get(&trace)) {
            (Some(&g), Some(&b)) => {
                out.insert(trace, Split::of(client_us, g, b));
            }
            _ => missing += 1,
        }
    }
    (out, missing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, event: Event) -> Record {
        Record {
            seq,
            t_us: seq,
            event,
        }
    }

    fn access(trace: u64, path: &'static str, queue_us: u64, sim_us: u64, dur_us: u64) -> Event {
        Event::Access {
            trace,
            span: 1,
            parent: 0,
            method: "POST".into(),
            path,
            model: "m".into(),
            table: "t".into(),
            status: 200,
            shed: false,
            batched: false,
            queue_us,
            sim_us,
            dur_us,
        }
    }

    fn client(trace: u64, dur_us: u64) -> Event {
        Event::Span {
            name: CLIENT_SPAN,
            tid: 0,
            depth: 0,
            start_us: 0,
            dur_us,
            arg: Some(trace),
        }
    }

    #[test]
    fn joins_by_trace_id_and_splits_self_time() {
        let journal = vec![
            rec(0, client(7, 3000)),
            rec(1, access(7, "/simulate", 2000, 500, 2700)),
            rec(2, access(7, "gw:/simulate", 0, 2750, 2900)),
            // Another request whose backend hop never journaled.
            rec(3, client(8, 1000)),
            rec(4, access(8, "gw:/simulate", 0, 900, 950)),
            // A backend hop with no client span: not one of ours.
            rec(5, access(9, "/simulate", 0, 1, 2)),
        ];
        let (splits, missing) = join(&journal);
        assert_eq!(missing, 1);
        assert_eq!(splits.len(), 1);
        let s = splits[&7];
        assert_eq!(s.client_self, 100.0);
        assert_eq!(s.gateway_self, 200.0);
        assert_eq!(s.server_self, 200.0);
        assert_eq!(s.queue, 2000.0);
        assert_eq!(s.sim, 500.0);
        // The layers tile the client span exactly.
        assert_eq!(s.total(), 3000.0);
    }
}
