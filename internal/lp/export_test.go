package lp

// The package's test corpora, for the external fuzz target in
// warm_fuzz_test.go (which must live outside the package to import lptest).
var (
	CorpusProblems = corpusProblems
	RandomProblem  = randomProblem
)
