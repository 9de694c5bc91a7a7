//! Serialisable AFG documents — what the web Application Editor uploads.
//!
//! In VDCE the editor runs in the user's browser and ships the finished
//! application to the Site Manager on the VDCE server. [`AfgDocument`] is
//! that wire format: a versioned envelope around the graph plus the
//! submitting user and requested runtime services (§4.2: I/O, console and
//! visualization services are "user-requested … while developing his/her
//! application with the Application Editor").

use crate::graph::Afg;
use crate::validate::{validate, ValidationError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Current document format version.
pub(crate) const DOCUMENT_VERSION: u32 = 1;

/// Runtime services a user can request at design time (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServiceRequest {
    /// File or URL I/O for task inputs/outputs.
    Io,
    /// Suspend/restart control from the console.
    Console,
    /// Application performance and workload visualisation.
    Visualization,
}

/// Versioned, serialisable envelope around an [`Afg`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AfgDocument {
    /// Format version (currently `DOCUMENT_VERSION`, 1).
    pub version: u32,
    /// VDCE user name of the author (matched against the user-accounts
    /// database at submission).
    pub author: String,
    /// Services requested for the run.
    pub services: Vec<ServiceRequest>,
    /// The application flow graph.
    pub afg: Afg,
}

/// Errors loading a document.
#[derive(Debug)]
pub enum DocumentError {
    /// The payload is not valid JSON for this schema.
    Parse(serde_json::Error),
    /// The version field is newer than this implementation understands.
    UnsupportedVersion(u32),
    /// The embedded graph fails validation.
    Invalid(ValidationError),
}

impl fmt::Display for DocumentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocumentError::Parse(e) => write!(f, "malformed AFG document: {e}"),
            DocumentError::UnsupportedVersion(v) => {
                write!(f, "unsupported AFG document version {v}")
            }
            DocumentError::Invalid(e) => write!(f, "invalid application flow graph: {e}"),
        }
    }
}

impl std::error::Error for DocumentError {}

impl AfgDocument {
    /// Wrap a validated graph in a document.
    pub fn new(author: impl Into<String>, afg: Afg) -> Result<Self, ValidationError> {
        validate(&afg)?;
        Ok(AfgDocument {
            version: DOCUMENT_VERSION,
            author: author.into(),
            services: Vec::new(),
            afg,
        })
    }

    /// Request an additional runtime service (idempotent).
    pub fn with_service(mut self, s: ServiceRequest) -> Self {
        if !self.services.contains(&s) {
            self.services.push(s);
        }
        self
    }

    /// Serialise to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("AFG documents always serialise")
    }

    /// Parse and validate a document from JSON.
    pub fn from_json(json: &str) -> Result<Self, DocumentError> {
        let doc: AfgDocument = serde_json::from_str(json).map_err(DocumentError::Parse)?;
        if doc.version > DOCUMENT_VERSION {
            return Err(DocumentError::UnsupportedVersion(doc.version));
        }
        validate(&doc.afg).map_err(DocumentError::Invalid)?;
        Ok(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AfgBuilder;
    use crate::library::TaskLibrary;

    fn sample() -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("doc-test", &lib);
        let s = b.add_task("Source", "s", 10).unwrap();
        let k = b.add_task("Sink", "k", 10).unwrap();
        b.connect(s, 0, k, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let doc = AfgDocument::new("user_k", sample())
            .unwrap()
            .with_service(ServiceRequest::Io)
            .with_service(ServiceRequest::Visualization);
        let json = doc.to_json();
        let back = AfgDocument::from_json(&json).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn with_service_is_idempotent() {
        let doc = AfgDocument::new("u", sample())
            .unwrap()
            .with_service(ServiceRequest::Console)
            .with_service(ServiceRequest::Console);
        assert_eq!(doc.services, vec![ServiceRequest::Console]);
    }

    #[test]
    fn invalid_graph_is_rejected_at_wrap_time() {
        let mut g = sample();
        g.edges.clear(); // sink input dangles
        assert!(AfgDocument::new("u", g).is_err());
    }

    #[test]
    fn newer_version_is_rejected() {
        let mut doc = AfgDocument::new("u", sample()).unwrap();
        doc.version = DOCUMENT_VERSION + 1;
        let json = serde_json::to_string(&doc).unwrap();
        assert!(matches!(AfgDocument::from_json(&json), Err(DocumentError::UnsupportedVersion(_))));
    }

    #[test]
    fn garbage_is_a_parse_error() {
        assert!(matches!(AfgDocument::from_json("{nope"), Err(DocumentError::Parse(_))));
    }

    #[test]
    fn tampered_graph_is_rejected_at_load_time() {
        let doc = AfgDocument::new("u", sample()).unwrap();
        let mut v: serde_json::Value = serde_json::from_str(&doc.to_json()).unwrap();
        v["afg"]["edges"] = serde_json::json!([]);
        let json = serde_json::to_string(&v).unwrap();
        assert!(matches!(AfgDocument::from_json(&json), Err(DocumentError::Invalid(_))));
    }
}
