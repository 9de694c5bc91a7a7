//! Property tests for the network model and message bus.

use proptest::prelude::*;
use vdce_net::model::{LinkParams, NetworkModel};
use vdce_net::topology::SiteId;
use vdce_net::{gen, MessageBus};

proptest! {
    #[test]
    fn model_is_symmetric_and_monotone_in_bytes(
        sites in 1usize..10,
        links in proptest::collection::vec((0u16..10, 0u16..10, 1e-6f64..1.0, 1e3f64..1e9), 0..30),
        a in 0u16..10,
        b in 0u16..10,
        bytes in 0u64..10_000_000,
    ) {
        let mut m = NetworkModel::with_defaults(sites);
        for (x, y, lat, bw) in links {
            let (x, y) = (x % sites as u16, y % sites as u16);
            m.set_link(SiteId(x), SiteId(y), LinkParams::new(lat, bw));
        }
        let (a, b) = (SiteId(a % sites as u16), SiteId(b % sites as u16));
        prop_assert_eq!(m.link(a, b), m.link(b, a));
        let t1 = m.transfer_time(a, b, bytes);
        let t2 = m.transfer_time(a, b, bytes + 1024);
        prop_assert!(t2 >= t1, "more bytes must not be faster");
        prop_assert!(t1 > 0.0, "latency makes every transfer positive");
    }

    #[test]
    fn nearest_neighbours_sorted_unique_and_self_free(
        sites in 1usize..12,
        seed in any::<u64>(),
        local in 0u16..12,
        k in 0usize..12,
    ) {
        let local = SiteId(local % sites as u16);
        let (_, m) = gen::uniform_random(sites, 1, seed);
        let nn = m.nearest_neighbours(local, k);
        prop_assert!(nn.len() <= k.min(sites - 1));
        prop_assert!(!nn.contains(&local));
        // Sorted by distance.
        for w in nn.windows(2) {
            prop_assert!(m.distance(local, w[0]) <= m.distance(local, w[1]) + 1e-12);
        }
        // Unique.
        let mut dedup = nn.clone();
        dedup.sort();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), nn.len());
        // With k ≥ sites-1 every other site appears.
        if k >= sites - 1 {
            prop_assert_eq!(nn.len(), sites - 1);
        }
    }

    #[test]
    fn generators_produce_consistent_federations(
        sites in 1usize..8,
        hosts in 1usize..5,
        seed in any::<u64>(),
    ) {
        for (topo, model) in [
            gen::star(sites, hosts),
            gen::ring(sites, hosts),
            gen::uniform_random(sites, hosts, seed),
        ] {
            prop_assert_eq!(topo.site_count(), sites);
            prop_assert_eq!(model.site_count(), sites);
            prop_assert_eq!(topo.host_count(), sites * hosts);
            // Every generated host resolves back to its site.
            for s in topo.sites() {
                for h in &s.hosts {
                    prop_assert_eq!(topo.site_of_host(h), Some(s.id));
                }
            }
        }
    }

    #[test]
    fn bus_delivers_every_message_exactly_once(
        n_sites in 2u16..6,
        sends in proptest::collection::vec((0u16..6, 0u16..6, any::<u32>()), 0..50),
    ) {
        let bus: MessageBus<u32> = MessageBus::new();
        let endpoints: Vec<_> = (0..n_sites).map(|s| bus.register(SiteId(s))).collect();
        let mut expected = vec![Vec::new(); n_sites as usize];
        for (from, to, msg) in sends {
            let (from, to) = (SiteId(from % n_sites), SiteId(to % n_sites));
            bus.send(from, to, msg, 4).unwrap();
            expected[to.index()].push(msg);
        }
        for (i, ep) in endpoints.iter().enumerate() {
            let got: Vec<u32> = ep.drain().into_iter().map(|d| d.msg).collect();
            // FIFO per sender; with a single test thread, global order
            // equals send order.
            prop_assert_eq!(&got, &expected[i]);
        }
        let total = bus.total_traffic();
        prop_assert_eq!(total.bytes, total.messages * 4);
    }
}
