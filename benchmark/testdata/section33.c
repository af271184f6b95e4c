// The paper's §3.3 example: a leaf-linked binary tree (Figure 3) and the
// subroutine whose statements S and T APT proves independent.
struct LLBinaryTree {
	struct LLBinaryTree *L;
	struct LLBinaryTree *R;
	struct LLBinaryTree *N;
	int d;
	axioms {
		A1: forall p, p.L <> p.R;
		A2: forall p <> q, p.(L|R) <> q.(L|R);
		A3: forall p <> q, p.N <> q.N;
		A4: forall p, p.(L|R|N)+ <> p.eps;
	}
};

int subr(struct LLBinaryTree *root) {
	struct LLBinaryTree *p;
	struct LLBinaryTree *q;
	root = root->L;
	p = root->L;
	p = p->N;
S:	p->d = 100;
	p = root;
I:	q = root->R;
	q = q->N;
T:	return q->d;
}
