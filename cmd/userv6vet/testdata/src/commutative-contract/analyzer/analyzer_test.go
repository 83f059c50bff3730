package analyzer

// Test doubles with inline folds are not held to the Merge requirement.
type testDouble struct{}

func wireForTest(s *Set) {
	AddCommutativeAnalyzer(s, &testDouble{}, func() *testDouble { return &testDouble{} }, func(into, from *testDouble) {})
}
