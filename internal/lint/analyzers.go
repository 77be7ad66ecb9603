package lint

// All returns the full vinelint analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		policypurity,
		mapdeterminism,
		lockdiscipline,
		ctxdeadline,
		pinresolve,
		mirrorparity,
		goroutinelifecycle,
	}
}
