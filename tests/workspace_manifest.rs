//! The tier-1 command is a bare `cargo build --release && cargo test -q`
//! at the root, which covers `default-members` only: a crate listed in
//! `members` but not there would build in `ci.sh` and be invisible to
//! tier-1, tests and all.

/// The quoted entries of the `key = [ ... ]` array in the root manifest.
fn manifest_array<'a>(manifest: &'a str, key: &str) -> Vec<&'a str> {
    let open = format!("{key} = [");
    let start = manifest
        .lines()
        .position(|line| line.trim() == open)
        .unwrap_or_else(|| panic!("`{open}` not found in Cargo.toml"));
    manifest
        .lines()
        .skip(start + 1)
        .take_while(|line| line.trim() != "]")
        .map(|line| line.trim().trim_end_matches(',').trim_matches('"'))
        .collect()
}

#[test]
fn default_members_cover_the_workspace() {
    let manifest = include_str!("../Cargo.toml");
    let members = manifest_array(manifest, "members");
    let defaults = manifest_array(manifest, "default-members");
    assert!(!members.is_empty());
    assert!(
        defaults.contains(&"."),
        "the root package must be a default member"
    );
    for member in &members {
        assert!(
            defaults.contains(member),
            "`{member}` is a workspace member but not a default member: \
             tier-1 would not build or test it"
        );
    }
}
