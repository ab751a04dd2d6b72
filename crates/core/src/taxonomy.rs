//! The JSON traffic taxonomy (Figure 2 of the paper).
//!
//! The paper "divides the properties of JSON traffic into traffic source,
//! request type, and response type". The §4 report
//! ([`crate::pipeline::CharacterizationReport`]) tallies each axis
//! directly; this module names the request-type axis it classifies by.

use jcdn_trace::Method;

/// Request type: upload vs. download (from the HTTP method, per §3.2's
/// GET/POST convention).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestType {
    /// GET/HEAD — retrieves data.
    Download,
    /// POST/PUT — sends data.
    Upload,
    /// Anything else.
    Other,
}

impl RequestType {
    /// Classifies an HTTP method.
    pub fn from_method(method: Method) -> RequestType {
        if method.is_download() {
            RequestType::Download
        } else if method.is_upload() {
            RequestType::Upload
        } else {
            RequestType::Other
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_type_mapping() {
        assert_eq!(RequestType::from_method(Method::Get), RequestType::Download);
        assert_eq!(
            RequestType::from_method(Method::Head),
            RequestType::Download
        );
        assert_eq!(RequestType::from_method(Method::Post), RequestType::Upload);
        assert_eq!(RequestType::from_method(Method::Put), RequestType::Upload);
        assert_eq!(RequestType::from_method(Method::Delete), RequestType::Other);
    }
}
