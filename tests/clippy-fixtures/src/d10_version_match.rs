// D10: a version dispatch must name every version, so a new variant does
// not silently ride an old arm. A wildcard arm standing for two or more
// variants is `wildcard_enum_match_arm`; one standing for a single
// variant is `match_wildcard_for_single_variants`. The codec modules opt
// in to both at their top, as this one does.
#![warn(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

enum Version {
    V1,
    V2,
    V3,
}

fn has_flags(version: Version) -> bool {
    match version {
        Version::V1 => false,
        _ => true, // clippy::wildcard_enum_match_arm
    }
}

fn is_framed(version: Version) -> bool {
    match version {
        Version::V1 | Version::V2 => false,
        _ => true, // clippy::match_wildcard_for_single_variants
    }
}
