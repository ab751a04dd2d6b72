//! The client population.

use jcdn_trace::fnv1a;
use jcdn_ua::gen::{EmbeddedKind, UaGenerator, UaSpec};
use jcdn_ua::DeviceType;
use rand::Rng;

/// One synthetic client with its ground-truth labels.
#[derive(Clone, Debug)]
pub struct ClientInfo {
    /// Anonymized IP hash (the value that lands in the logs).
    pub ip_hash: u64,
    /// The `User-Agent` header this client sends (None ⇒ no header).
    pub ua: Option<String>,
    /// Ground-truth device type.
    pub device: DeviceType,
    /// Ground truth: is this client a browser?
    pub is_browser: bool,
    /// Relative activity weight (heavy-tailed across clients).
    pub activity: f64,
}

/// Mobile app product names used for native-app UA strings. Spread across
/// several so app-family grouping in the analysis has something to group.
pub(crate) const APP_NAMES: &[&str] = &[
    "NewsApp",
    "SportsScores",
    "ChatNow",
    "StreamBox",
    "GameParty",
    "ShopFast",
    "WeatherPulse",
    "FitTrack",
    "PayWallet",
    "RideShare",
];

/// Builds one client of the requested device class.
///
/// `browser` forces browser vs. native where the class supports both
/// (mobile). Desktop clients are always browsers (JSON from desktops is
/// overwhelmingly XHR traffic); embedded and unknown clients never are —
/// matching the paper's observation that no browser traffic appears on
/// embedded devices.
pub(crate) fn make_client<R: Rng + ?Sized>(
    rng: &mut R,
    index: usize,
    device: DeviceType,
    browser: bool,
    activity: f64,
) -> ClientInfo {
    let gen = UaGenerator::new();
    let spec = match device {
        DeviceType::Mobile => {
            if browser {
                UaSpec::MobileBrowser
            } else {
                UaSpec::MobileApp(APP_NAMES[rng.gen_range(0..APP_NAMES.len())])
            }
        }
        DeviceType::Desktop => UaSpec::DesktopBrowser,
        DeviceType::Embedded => {
            let kind = match rng.gen_range(0..100u8) {
                0..=39 => EmbeddedKind::Console,
                40..=79 => EmbeddedKind::Tv,
                80..=94 => EmbeddedKind::Watch,
                _ => EmbeddedKind::Iot,
            };
            UaSpec::Embedded(kind)
        }
        DeviceType::Unknown => match rng.gen_range(0..100u8) {
            0..=79 => UaSpec::Missing,
            80..=91 => UaSpec::Script,
            _ => UaSpec::Garbage,
        },
    };
    let (ua, truth) = gen.generate(rng, spec);
    ClientInfo {
        ip_hash: fnv1a(format!("client-{index}").as_bytes()),
        ua,
        device: truth.device,
        is_browser: truth.is_browser,
        activity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ground_truth_matches_requested_class() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let c = make_client(&mut rng, 0, DeviceType::Mobile, false, 1.0);
            assert_eq!(c.device, DeviceType::Mobile);
            assert!(!c.is_browser);

            let c = make_client(&mut rng, 1, DeviceType::Mobile, true, 1.0);
            assert!(c.is_browser);

            let c = make_client(&mut rng, 2, DeviceType::Desktop, true, 1.0);
            assert_eq!(c.device, DeviceType::Desktop);
            assert!(c.is_browser);

            let c = make_client(&mut rng, 3, DeviceType::Embedded, false, 1.0);
            assert_eq!(c.device, DeviceType::Embedded);
            assert!(!c.is_browser, "no browsers on embedded devices");

            let c = make_client(&mut rng, 4, DeviceType::Unknown, false, 1.0);
            assert_eq!(c.device, DeviceType::Unknown);
        }
    }

    #[test]
    fn unknown_clients_mostly_lack_ua() {
        let mut rng = StdRng::seed_from_u64(6);
        let missing = (0..500)
            .filter(|&i| {
                make_client(&mut rng, i, DeviceType::Unknown, false, 1.0)
                    .ua
                    .is_none()
            })
            .count();
        // ~80% configured; allow slack.
        assert!((350..450).contains(&missing), "missing UA count {missing}");
    }

    #[test]
    fn ip_hash_is_stable_per_index() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = make_client(&mut rng, 42, DeviceType::Mobile, false, 1.0);
        let b = make_client(&mut rng, 42, DeviceType::Desktop, true, 1.0);
        assert_eq!(a.ip_hash, b.ip_hash);
        let c = make_client(&mut rng, 43, DeviceType::Mobile, false, 1.0);
        assert_ne!(a.ip_hash, c.ip_hash);
    }
}
