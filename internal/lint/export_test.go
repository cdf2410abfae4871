package lint

// HotpathRoots exposes hotpathRoots to the external tests.
var HotpathRoots = hotpathRoots

// Allows returns the analyzer names the //lint:allow and //lint:ordered
// comments in pkgs name, by file and line.
func Allows(pkgs []*Package) map[string]map[int][]string {
	s := allowSet{}
	for _, p := range pkgs {
		collectAllows(p, s)
	}
	return s
}
