//! Core traffic-source vocabulary (Figure 2 of the paper).

use std::fmt;

/// Device category of the request initiator.
///
/// Matches the paper's Figure 3 breakdown: *mobiles, desktops/laptops, and
/// embedded devices*, where embedded is "non-mobile, non-desktop devices,
/// such as game consoles, IoTs, smart TVs, etc.", plus *Unknown* for missing
/// or unidentifiable user agents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceType {
    /// Smartphones and tablets.
    Mobile,
    /// Desktops and laptops.
    Desktop,
    /// Game consoles, smart TVs, watches, IoT, set-top boxes.
    Embedded,
    /// Missing or unidentifiable user agent.
    Unknown,
}

impl DeviceType {
    /// All variants, in the order the paper reports them.
    pub const ALL: [DeviceType; 4] = [
        DeviceType::Mobile,
        DeviceType::Desktop,
        DeviceType::Embedded,
        DeviceType::Unknown,
    ];
}

impl fmt::Display for DeviceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DeviceType::Mobile => "Mobile",
            DeviceType::Desktop => "Desktop",
            DeviceType::Embedded => "Embedded",
            DeviceType::Unknown => "Unknown",
        })
    }
}

/// Operating platform extracted from system identifiers in the UA string
/// ("we group by system identifiers in the user-agent field, such as
/// 'Android', 'iPhone', 'Windows', etc." — §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Android phones/tablets.
    Android,
    /// iPhones/iPads (iOS, iPadOS).
    Ios,
    /// Microsoft Windows desktops.
    Windows,
    /// Apple macOS desktops.
    MacOs,
    /// Linux desktops.
    Linux,
    /// Sony PlayStation consoles.
    PlayStation,
    /// Microsoft Xbox consoles.
    Xbox,
    /// Nintendo consoles.
    Nintendo,
    /// Smart TVs (Tizen, webOS, Roku, tvOS, …).
    SmartTv,
    /// Watches (watchOS, Wear OS).
    Watch,
    /// Other IoT and embedded systems.
    Iot,
    /// Recognized as a script/library runtime rather than a device.
    ScriptRuntime,
    /// Could not be determined.
    Unknown,
}

impl Platform {
    /// The device type this platform implies.
    pub fn device_type(self) -> DeviceType {
        match self {
            Platform::Android | Platform::Ios => DeviceType::Mobile,
            Platform::Windows | Platform::MacOs | Platform::Linux => DeviceType::Desktop,
            Platform::PlayStation
            | Platform::Xbox
            | Platform::Nintendo
            | Platform::SmartTv
            | Platform::Watch
            | Platform::Iot => DeviceType::Embedded,
            // A bare script runtime (curl on a CI box, python on a server)
            // reveals no device; the paper buckets these as Unknown.
            Platform::ScriptRuntime | Platform::Unknown => DeviceType::Unknown,
        }
    }
}

impl fmt::Display for Platform {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Platform::Android => "Android",
            Platform::Ios => "iOS",
            Platform::Windows => "Windows",
            Platform::MacOs => "macOS",
            Platform::Linux => "Linux",
            Platform::PlayStation => "PlayStation",
            Platform::Xbox => "Xbox",
            Platform::Nintendo => "Nintendo",
            Platform::SmartTv => "SmartTV",
            Platform::Watch => "Watch",
            Platform::Iot => "IoT",
            Platform::ScriptRuntime => "ScriptRuntime",
            Platform::Unknown => "Unknown",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_implies_device_type() {
        assert_eq!(Platform::Android.device_type(), DeviceType::Mobile);
        assert_eq!(Platform::Ios.device_type(), DeviceType::Mobile);
        assert_eq!(Platform::Windows.device_type(), DeviceType::Desktop);
        assert_eq!(Platform::PlayStation.device_type(), DeviceType::Embedded);
        assert_eq!(Platform::Watch.device_type(), DeviceType::Embedded);
        assert_eq!(Platform::ScriptRuntime.device_type(), DeviceType::Unknown);
    }

    #[test]
    fn display_labels() {
        assert_eq!(DeviceType::Mobile.to_string(), "Mobile");
        assert_eq!(Platform::SmartTv.to_string(), "SmartTV");
    }
}
