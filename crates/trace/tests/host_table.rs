//! Property test: `HostTable` resolves every URL to the host that
//! `Interner::host_of` parses, and two URLs share a host id exactly when
//! their hosts are equal.

use std::collections::BTreeSet;

use jcdn_trace::{HostTable, Interner, UrlId};
use proptest::prelude::*;

/// URL-like strings in the shapes `host_of` tells apart: with a scheme,
/// scheme-relative or bare; with a numeric, empty or non-numeric port;
/// followed by a path, query or fragment. Hosts come from a two-letter
/// alphabet so that they collide often. Arbitrary printable strings ride
/// along.
fn url() -> impl Strategy<Value = String> {
    prop_oneof![
        (
            prop_oneof![Just("https://"), Just("http://"), Just("//"), Just("")],
            "[ab]{1,2}\\.ex",
            prop_oneof![Just(""), Just(":8443"), Just(":"), Just(":x1")],
            prop_oneof![
                Just(""),
                Just("/"),
                Just("/p/q"),
                Just("?q=1"),
                Just("#f"),
                Just("/a:80"),
            ],
        )
            .prop_map(|(scheme, host, port, rest)| format!("{scheme}{host}{port}{rest}")),
        "\\PC{0,16}",
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn host_ids_agree_with_host_of(urls in prop::collection::vec(url(), 0..24)) {
        let mut interner = Interner::new();
        let ids: Vec<UrlId> = urls.iter().map(|url| interner.intern_url(url)).collect();
        let table = HostTable::build(&interner);

        for &a in &ids {
            prop_assert_eq!(table.hosts()[table.host_id(a)], interner.host_of(a));
            for &b in &ids {
                prop_assert_eq!(
                    table.host_id(a) == table.host_id(b),
                    interner.host_of(a) == interner.host_of(b),
                    "{:?} vs {:?}",
                    interner.url(a),
                    interner.url(b)
                );
            }
        }
        // Dense: one id per distinct host, no more.
        let distinct: BTreeSet<&str> = ids.iter().map(|&id| interner.host_of(id)).collect();
        prop_assert_eq!(table.hosts().len(), distinct.len());
    }
}
