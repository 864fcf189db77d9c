package isa

// RandInst lends randInst to the external test package (fuzz_test.go, which
// imports internal/emu and so cannot live in package isa).
var RandInst = randInst

// RVCSeeds returns a parcel of each RV64C form: its match with every bit the
// form leaves to an operand set (TestRVCFormsComplete checks that it is one).
func RVCSeeds() []uint16 {
	var seeds []uint16
	for i := range rvcForms {
		seeds = append(seeds, rvcForms[i].match|^rvcForms[i].mask)
	}
	return seeds
}
