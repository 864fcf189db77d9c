package isa

// RandInst lends randInst to the external test package (fuzz_test.go, which
// imports internal/emu and so cannot live in package isa).
var RandInst = randInst
