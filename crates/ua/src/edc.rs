//! Device-characteristics database (EDC stand-in).
//!
//! The paper reduces UA misclassification with Akamai's *Edge Device
//! Characteristics* database \[2\]: a lookup from device identifiers
//! embedded in UA strings to hardware attributes. That database is
//! proprietary; [`EdcDatabase`] plays the same role with a curated table of
//! model-token patterns (extensible at runtime), and is consulted as a
//! second stage when token heuristics alone leave the platform ambiguous.

use crate::types::{DeviceType, Platform};

/// One device record: a substring pattern and the hardware it identifies.
#[derive(Clone, Debug)]
pub struct DeviceRecord {
    /// Substring matched (case-sensitively) against the UA.
    pub pattern: &'static str,
    /// Platform implied by the match.
    pub platform: Platform,
    /// Device type implied by the match (usually `platform.device_type()`,
    /// but e.g. Android-based TVs override it).
    pub device: DeviceType,
    /// Human-readable hardware label.
    pub label: &'static str,
}

/// The device-characteristics lookup table.
#[derive(Clone, Debug, Default)]
pub struct EdcDatabase {
    records: Vec<DeviceRecord>,
}

impl EdcDatabase {
    /// The built-in table of well-known device identifiers.
    pub(crate) fn builtin() -> Self {
        const RECORDS: &[DeviceRecord] = &[
            // Samsung Galaxy phones.
            DeviceRecord {
                pattern: "SM-G",
                platform: Platform::Android,
                device: DeviceType::Mobile,
                label: "Samsung Galaxy S-series",
            },
            DeviceRecord {
                pattern: "SM-A",
                platform: Platform::Android,
                device: DeviceType::Mobile,
                label: "Samsung Galaxy A-series",
            },
            DeviceRecord {
                pattern: "Pixel",
                platform: Platform::Android,
                device: DeviceType::Mobile,
                label: "Google Pixel",
            },
            // Android TV boxes report Android but are embedded devices.
            DeviceRecord {
                pattern: "AFTB",
                platform: Platform::SmartTv,
                device: DeviceType::Embedded,
                label: "Amazon Fire TV",
            },
            DeviceRecord {
                pattern: "SHIELD Android TV",
                platform: Platform::SmartTv,
                device: DeviceType::Embedded,
                label: "NVIDIA Shield TV",
            },
            DeviceRecord {
                pattern: "BRAVIA",
                platform: Platform::SmartTv,
                device: DeviceType::Embedded,
                label: "Sony Bravia TV",
            },
            // Consoles.
            DeviceRecord {
                pattern: "PlayStation 4",
                platform: Platform::PlayStation,
                device: DeviceType::Embedded,
                label: "Sony PlayStation 4",
            },
            DeviceRecord {
                pattern: "PlayStation Vita",
                platform: Platform::PlayStation,
                device: DeviceType::Embedded,
                label: "Sony PlayStation Vita",
            },
            DeviceRecord {
                pattern: "Xbox One",
                platform: Platform::Xbox,
                device: DeviceType::Embedded,
                label: "Microsoft Xbox One",
            },
            DeviceRecord {
                pattern: "Nintendo Switch",
                platform: Platform::Nintendo,
                device: DeviceType::Embedded,
                label: "Nintendo Switch",
            },
            // Watches.
            DeviceRecord {
                pattern: "Watch OS",
                platform: Platform::Watch,
                device: DeviceType::Embedded,
                label: "Apple Watch",
            },
            DeviceRecord {
                pattern: "Apple Watch",
                platform: Platform::Watch,
                device: DeviceType::Embedded,
                label: "Apple Watch",
            },
            // TVs & streaming sticks.
            DeviceRecord {
                pattern: "Tizen",
                platform: Platform::SmartTv,
                device: DeviceType::Embedded,
                label: "Samsung Tizen TV",
            },
            DeviceRecord {
                pattern: "Web0S",
                platform: Platform::SmartTv,
                device: DeviceType::Embedded,
                label: "LG webOS TV",
            },
            DeviceRecord {
                pattern: "Roku/",
                platform: Platform::SmartTv,
                device: DeviceType::Embedded,
                label: "Roku",
            },
            DeviceRecord {
                pattern: "AppleTV",
                platform: Platform::SmartTv,
                device: DeviceType::Embedded,
                label: "Apple TV",
            },
            DeviceRecord {
                pattern: "CrKey",
                platform: Platform::SmartTv,
                device: DeviceType::Embedded,
                label: "Google Chromecast",
            },
            // IoT.
            DeviceRecord {
                pattern: "ESP32",
                platform: Platform::Iot,
                device: DeviceType::Embedded,
                label: "Espressif ESP32",
            },
            DeviceRecord {
                pattern: "SmartThings",
                platform: Platform::Iot,
                device: DeviceType::Embedded,
                label: "Samsung SmartThings hub",
            },
        ];
        EdcDatabase {
            records: RECORDS.to_vec(),
        }
    }

    /// Looks up the first record whose pattern occurs in `ua`.
    pub(crate) fn lookup(&self, ua: &str) -> Option<&DeviceRecord> {
        self.records.iter().find(|r| ua.contains(r.pattern))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_covers_consoles_and_tvs() {
        let db = EdcDatabase::builtin();
        let r = db
            .lookup("Mozilla/5.0 (PlayStation 4 6.50) AppleWebKit/605.1.15")
            .unwrap();
        assert_eq!(r.device, DeviceType::Embedded);
        assert_eq!(r.platform, Platform::PlayStation);

        let r = db.lookup("Roku/DVP-9.10 (519.10E04111A)").unwrap();
        assert_eq!(r.platform, Platform::SmartTv);
    }

    #[test]
    fn android_tv_overrides_mobile_classification() {
        let db = EdcDatabase::builtin();
        let r = db
            .lookup("Mozilla/5.0 (Linux; Android 7.1; AFTB Build/LVY48F)")
            .unwrap();
        assert_eq!(r.device, DeviceType::Embedded);
    }

    #[test]
    fn no_match_returns_none() {
        let db = EdcDatabase::builtin();
        assert!(db.lookup("totally unknown agent").is_none());
        assert!(db.lookup("").is_none());
    }
}
