package obs

// Find returns the gathered family with the given name, nil when absent.
func Find(fams []Family, name string) *Family {
	for i := range fams {
		if fams[i].Name == name {
			return &fams[i]
		}
	}
	return nil
}
