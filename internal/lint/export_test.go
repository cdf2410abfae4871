package lint

// HotpathRoots exposes hotpathRoots to the external tests.
var HotpathRoots = hotpathRoots
