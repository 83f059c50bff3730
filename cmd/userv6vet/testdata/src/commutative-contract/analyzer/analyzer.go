// Fixture for the commutative-contract rule: a type registered with
// AddCommutativeAnalyzer must carry a Merge with a matching receiver.
// The framework stand-ins below are matched by name, exactly like the
// real internal/core API.
package analyzer

type Set struct{}

func AddCommutativeAnalyzer[T any](s *Set, primary T, mk func() T, fold func(into, from T)) {}

func AddCommutativeAnalyzerFiltered[T any](s *Set, primary T, mk func() T, fold func(into, from T), filter func(int) bool) {
}

// Good implements the full contract.
type Good struct{ n int }

func (g *Good) Merge(other *Good) { g.n += other.n }

// Bad is registered but has no Merge at all.
type Bad struct{}

// Mismatched has a Merge whose parameter is a different type, so the
// method expression cannot serve as the fold.
type Mismatched struct{}

func (m *Mismatched) Merge(other *Good) {}

// ValueReg is registered by value while Merge hangs off the pointer
// receiver: the fold would merge into a copy.
type ValueReg struct{ n int }

func (v *ValueReg) Merge(other ValueReg) { v.n += other.n }

func Wire(s *Set) {
	AddCommutativeAnalyzer(s, &Good{}, func() *Good { return &Good{} }, (*Good).Merge)
	AddCommutativeAnalyzer(s, &Bad{}, func() *Bad { return &Bad{} }, func(into, from *Bad) {})                                                   // want `commutative-contract: Bad is registered with AddCommutativeAnalyzer but implements no Merge`
	AddCommutativeAnalyzer(s, &Mismatched{}, func() *Mismatched { return &Mismatched{} }, func(a, b *Mismatched) {})                             // want `commutative-contract: Mismatched is registered with AddCommutativeAnalyzer but its Merge does not take exactly one \*example\.com/commutative-contract/analyzer\.Mismatched`
	AddCommutativeAnalyzerFiltered(s, ValueReg{}, func() ValueReg { return ValueReg{} }, func(a, b ValueReg) {}, func(int) bool { return true }) // want `commutative-contract: ValueReg is registered with AddCommutativeAnalyzer by value but Merge has a pointer receiver`
}
