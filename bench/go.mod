// The benchmark is a module of its own so that it builds from its own
// directory; it reaches the measured packages through the replace below.
module cnetverifier/bench

go 1.22

require cnetverifier v0.0.0

replace cnetverifier => ../
