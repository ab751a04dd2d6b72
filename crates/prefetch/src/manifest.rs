//! Manifest-driven prefetching (Table 1's pattern, executed by the edge).

use std::collections::HashMap;

use jcdn_cdnsim::{Policy, PolicyOutcome, RequestCtx};
use jcdn_workload::ObjectInfo;

/// A [`Policy`] that parses JSON manifest bodies as they are served and
/// prefetches the objects they reference.
///
/// This is the JSON analogue of HTML-driven server push: "browser traffic
/// is guided by an HTML manifest file … however, non-browser traffic from
/// mobile apps is less standardized" (§1) — but when the app's root object
/// *is* a manifest (Table 1), the CDN can read the same structure.
///
/// Reference resolution is by exact URL match against the object universe;
/// parse results are memoized per object id.
#[derive(Debug, Default)]
pub struct ManifestPrefetcher {
    /// Memoized manifest → children resolution.
    children: HashMap<u32, Vec<u32>>,
    /// URL → object index for the bound universe.
    url_to_object: HashMap<String, u32>,
    /// Whether the universe has been bound.
    bound: bool,
}

impl ManifestPrefetcher {
    /// Creates an unbound prefetcher.
    pub fn new() -> Self {
        ManifestPrefetcher::default()
    }

    /// Indexes the universe's URLs (must run before simulation).
    pub fn bind_universe(&mut self, objects: &[ObjectInfo]) {
        self.url_to_object = objects
            .iter()
            .enumerate()
            .map(|(i, o)| (o.url.clone(), i as u32))
            .collect();
        self.children.clear();
        self.bound = true;
    }

    fn resolve_children(&mut self, object_id: u32, objects: &[ObjectInfo]) -> Vec<u32> {
        if let Some(cached) = self.children.get(&object_id) {
            return cached.clone();
        }
        let object = &objects[object_id as usize];
        let mut resolved = Vec::new();
        if let Some(body) = &object.body {
            if let Ok(doc) = jcdn_json::parse(body) {
                let base = jcdn_url::Url::parse(&object.url).ok();
                for reference in jcdn_json::extract_url_refs(&doc) {
                    // Try exact match first, then resolve relative refs
                    // against the manifest's own URL.
                    let target = if let Some(&id) = self.url_to_object.get(reference) {
                        Some(id)
                    } else if let Some(base) = &base {
                        base.join(reference)
                            .ok()
                            .and_then(|joined| self.url_to_object.get(&joined.to_string()).copied())
                    } else {
                        None
                    };
                    if let Some(id) = target {
                        resolved.push(id);
                    }
                }
            }
        }
        self.children.insert(object_id, resolved.clone());
        resolved
    }
}

impl Policy for ManifestPrefetcher {
    fn on_request(&mut self, ctx: &RequestCtx<'_>) -> PolicyOutcome {
        debug_assert!(self.bound, "bind_universe must run before simulation");
        let prefetch = self.resolve_children(ctx.object, ctx.objects);
        PolicyOutcome {
            prefetch,
            priority: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jcdn_cdnsim::{run, run_default, SimConfig};
    use jcdn_workload::{build, WorkloadConfig};

    #[test]
    fn resolves_children_from_real_manifest_bodies() {
        let w = build(&WorkloadConfig::tiny(51));
        let mut p = ManifestPrefetcher::new();
        p.bind_universe(&w.objects);
        // Find a manifest object and check its children resolve to the
        // ground-truth reference set.
        #[expect(
            clippy::disallowed_methods,
            reason = "any manifest with a body will do"
        )]
        let (manifest_id, truth_children) = w
            .truth
            .manifest_children
            .iter()
            .find(|(&id, _)| w.objects[id as usize].body.is_some())
            .map(|(&id, c)| (id, c.clone()))
            .expect("workload has JSON manifests");
        let resolved = p.resolve_children(manifest_id, &w.objects);
        assert!(!resolved.is_empty());
        for child in &resolved {
            assert!(
                truth_children.contains(child),
                "resolved child {child} not in ground truth"
            );
        }
    }

    #[test]
    fn manifest_prefetching_improves_hit_ratio() {
        let w = build(&WorkloadConfig::tiny(61));
        let base = run_default(&w, &SimConfig::default());
        let mut p = ManifestPrefetcher::new();
        p.bind_universe(&w.objects);
        let boosted = run(&w, &SimConfig::default(), &mut p);
        assert!(boosted.stats.prefetch_issued > 0);
        assert!(
            boosted.stats.cacheable_hit_ratio().unwrap()
                >= base.stats.cacheable_hit_ratio().unwrap(),
            "manifest prefetch must not hurt"
        );
    }

    #[test]
    fn non_manifest_objects_prefetch_nothing() {
        let w = build(&WorkloadConfig::tiny(71));
        let mut p = ManifestPrefetcher::new();
        p.bind_universe(&w.objects);
        let plain = w
            .objects
            .iter()
            .position(|o| o.body.is_none())
            .expect("plain objects exist") as u32;
        assert!(p.resolve_children(plain, &w.objects).is_empty());
    }
}
