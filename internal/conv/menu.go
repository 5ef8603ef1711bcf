package conv

import (
	"fmt"

	"swatop/internal/dsl"
	"swatop/internal/ir"
)

// Lowering method names: the three convolution algorithms swATOP tunes.
const (
	Implicit = "implicit"
	Explicit = "explicit"
	Winograd = "winograd"
)

// Operator is the tunable-operator contract every method's operator
// meets: autotune.Operator's method set, restated here because the
// autotuner's own tests import this package.
type Operator interface {
	Name() string
	Seed() *dsl.Seed
	Space() *dsl.Space
	Compile(st dsl.Strategy) (*ir.Program, error)
}

// Method is one entry of the convolution menu: a lowering algorithm, the
// paper's applicability rule for it and its tunable operator.
type Method struct {
	Name    string
	Applies func(Shape) bool
	NewOp   func(Shape) (Operator, error)
}

// Menu lists the lowering methods in the tuner's fixed sweep order:
// implicit GEMM when the input-channel count sustains it, explicit im2col
// always, Winograd F(2×2,3×3) when the shape qualifies.
var Menu = [...]Method{
	{Implicit, func(s Shape) bool { return s.Ni >= MinNiImplicit },
		func(s Shape) (Operator, error) { return NewImplicitOp(s) }},
	{Explicit, func(Shape) bool { return true },
		func(s Shape) (Operator, error) { return NewExplicitOp(s) }},
	{Winograd, WinogradApplies,
		func(s Shape) (Operator, error) { return NewWinogradOp(s) }},
}

// Lookup finds a menu method by name.
func Lookup(name string) (Method, error) {
	for _, m := range Menu {
		if m.Name == name {
			return m, nil
		}
	}
	return Method{}, fmt.Errorf("unknown conv method %q", name)
}

// NewOp builds the tunable operator of the named method.
func NewOp(name string, s Shape) (Operator, error) {
	m, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	return m.NewOp(s)
}
