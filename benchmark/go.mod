// The benchmark is a module of its own so that it builds from its own
// directory; the replace directive makes it compile the engine from the
// checkout it sits in, and the asterix/ path prefix lets it import the
// engine's internal packages.
module asterix/benchmark

go 1.22

require asterix v0.0.0

replace asterix => ../
